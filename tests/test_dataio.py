import numpy as np
import pytest

from tspo.dataio import (
    Dataset,
    Segment,
    SynthSpec,
    generate,
    load_csv,
    save_csv,
    split,
)
from tspo.errors import ParseError, SchemaError
from tspo.predictor import ridge_fit


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(t=3, m=4, n=10, mapping="sine-mix", noise_std=0.1)
        a = generate(spec, seed=42)
        b = generate(spec, seed=42)
        for (fa, ta), (fb, tb) in zip(a.instances, b.instances):
            assert np.array_equal(fa, fb) and np.array_equal(ta, tb)

    def test_different_seeds_differ(self):
        spec = SynthSpec(t=3, m=4, n=5)
        a, b = generate(spec, 1), generate(spec, 2)
        assert not np.array_equal(a.instances[0][0], b.instances[0][0])

    def test_linear_noise_free_recoverable_by_ridge(self):
        spec = SynthSpec(t=6, m=4, n=30, mapping="linear", noise_std=0.0)
        ds = generate(spec, seed=7)
        X = np.vstack([f for f, _ in ds.instances])
        y = np.concatenate([t for _, t in ds.instances])
        w = ridge_fit(X, y, lam=0.0)
        assert np.max(np.abs(X @ w - y)) < 1e-8

    def test_clamps_respected_over_many_samples(self):
        seg = (Segment(0, 4, lo=0.0, hi=1.0), Segment(4, 6, lo=2.0, hi=3.0, integer=True))
        spec = SynthSpec(t=6, m=3, n=200, mapping="sine-mix", noise_std=1.0, segments=seg)
        ds = generate(spec, seed=0)
        for _, th in ds.instances:
            assert np.all((0 <= th[:4]) & (th[:4] <= 1))
            assert np.all((2 <= th[4:]) & (th[4:] <= 3))
            assert np.all(th[4:] == np.round(th[4:]))

    def test_bad_mapping_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(t=2, m=2, n=2, mapping="cubic")


class TestCsvRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        spec = SynthSpec(t=4, m=3, n=6, mapping="sine-mix", noise_std=0.3)
        ds = generate(spec, seed=5)
        path = str(tmp_path / "data.csv")
        save_csv(ds, path)
        back = load_csv(path)
        assert back.t == ds.t and back.m == ds.m and len(back) == len(ds)
        for (fa, ta), (fb, tb) in zip(ds.instances, back.instances):
            assert np.max(np.abs(fa - fb)) <= 1e-10
            assert np.max(np.abs(ta - tb)) <= 1e-10

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,1\ntheta: 1.0\nfeat: 1.0,oops\n")
        with pytest.raises(ParseError) as ei:
            load_csv(str(path))
        assert "3" in str(ei.value)

    def test_header_body_mismatch(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("2,2,1\ntheta: 1.0,2.0\nfeat: 1.0,2.0\n")  # missing one feat line
        with pytest.raises(SchemaError):
            load_csv(str(path))

    def test_wrong_theta_width(self, tmp_path):
        path = tmp_path / "bad3.csv"
        path.write_text("2,2,1\ntheta: 1.0\nfeat: 1.0,2.0\nfeat: 1.0,2.0\n")
        with pytest.raises(SchemaError):
            load_csv(str(path))


class TestSplit:
    def test_paper_sizes(self):
        spec = SynthSpec(t=1, m=1, n=500)
        tr, te = split(generate(spec, 0), 0.7, seed=0)
        assert (len(tr), len(te)) == (350, 150)
        spec = SynthSpec(t=1, m=1, n=300)
        tr, te = split(generate(spec, 0), 0.7, seed=0)
        assert (len(tr), len(te)) == (210, 90)

    def test_same_seed_identical(self):
        ds = generate(SynthSpec(t=2, m=2, n=20), 3)
        a1, b1 = split(ds, 0.5, seed=9)
        a2, b2 = split(ds, 0.5, seed=9)
        for (f1, t1), (f2, t2) in zip(a1.instances, a2.instances):
            assert np.array_equal(f1, f2)

    def test_disjoint_covering(self):
        ds = generate(SynthSpec(t=2, m=2, n=21), 3)
        tr, te = split(ds, 0.6, seed=1)
        ids = {id(f) for f, _ in ds.instances}
        got = {id(f) for f, _ in tr.instances} | {id(f) for f, _ in te.instances}
        assert len(tr) + len(te) == 21
        assert got == ids
