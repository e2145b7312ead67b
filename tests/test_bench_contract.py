"""The names and call shapes that perfbench relies on.

perfbench measures layers by replacing tspo functions from outside the
package (``perfbench/spans.py``).  A renamed function or a moved positional
argument does not fail a bench run there: the wrapper is skipped, or reads
the wrong argument, and the traced metrics silently read 0.  Its HiGHS
check (``perfbench/checks.py``) rebuilds Stage 2 by calling the problem's
methods positionally, so a swapped argument would check a wrong Stage 2.
These checks fail instead.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from tspo import barrier, cli, dataio, problems, two_stage
from tspo.exact import ExactSolution, solve_milp_bnb
from tspo.milp import instantiate

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


def test_solution_fields_read_by_perfbench():
    # The stage-span wrapper records iterations and converged of each barrier
    # solve; the spans, Probes and checks.py read x, status and node_count of
    # exact solutions; checks.py compares these RegretReport fields with
    # HiGHS.  A renamed field would fail only inside the benchmark.
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert {"iterations", "converged"} <= names(barrier.BarrierSolution)
    assert {"x", "status", "node_count"} <= names(ExactSolution)
    assert {"preg", "stage1_obj", "stage2_obj", "penalty", "true_opt"} <= names(two_stage.RegretReport)


def test_stage2_build_positional_parameters():
    # checks.py calls problem.stage2_build(x1, theta) by position.
    assert positional(two_stage.TwoStageProblem.stage2_build) == ["self", "x1", "theta"]


@pytest.mark.parametrize("family", cli.PROBLEMS)
def test_stage2_check_call_shapes(family):
    # checks.py re-solves Stage 2 at the program's commitment x1 and totals
    # instantiate(problem.stage1, theta).c @ extract_x2(x2) plus
    # penalty_eval(x1, x2, theta).  Under a perfect prediction that total is
    # the true optimum; with x1 and theta swapped it is not.
    spec, problem = cli.build_problem(family, {}, 0.25, 0)
    theta = dataio.generate(problems.synth_spec_for(spec, m=2, n=1), seed=0).instances[0][1]
    opt = solve_milp_bnb(instantiate(problem.stage1, theta))
    x1 = opt.x
    x2 = solve_milp_bnb(problem.stage2_build(x1, theta)).x
    assert problem.extract_x2(x2).shape == x1.shape
    total = float(instantiate(problem.stage1, theta).c @ problem.extract_x2(x2))
    total += float(problem.penalty_eval(x1, x2, theta))
    assert abs(total - opt.objective) <= 1e-6 * (1.0 + abs(opt.objective))
