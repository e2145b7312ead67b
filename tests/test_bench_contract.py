"""The names and call shapes that perfbench's wrappers rely on.

perfbench measures layers by replacing tspo functions from outside the
package (``perfbench/spans.py``).  A renamed function or a moved positional
argument does not fail a bench run there: the wrapper is skipped, or reads
the wrong argument, and the traced metrics silently read 0.  These checks
fail instead.
"""

import importlib.util
import inspect
from pathlib import Path

from tspo import barrier, two_stage

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def positional(fn) -> list[str]:
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in inspect.signature(fn).parameters.values() if p.kind in kinds]


def test_surrogate_loss_grad_positional_parameters():
    # checks.py calls it with these five arguments, by position.
    assert positional(two_stage.surrogate_loss_grad)[:5] == ["problem", "net", "features", "theta", "mu_cutoff"]


def test_mode_position_of_the_stage_solves():
    # The stage wrappers read ``mode`` from args[2] and args[3].
    assert positional(two_stage.stage1_solve).index("mode") == 2
    assert positional(two_stage.stage2_solve).index("mode") == 3


def test_every_patched_name_exists():
    spans = load_spans()
    targets = [(module, attr) for module, attr, _ in spans._SPANS]
    targets += [(barrier, "phase1_interior"), (two_stage.TwoStageProblem, "stage2_build")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert missing == []
