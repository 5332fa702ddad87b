"""The verify suites' covariant passes run in row blocks, bit for bit.

``fpk``, ``props`` and ``rim`` run their large covariant passes, ``plane``
its base scalars and ``clifford`` its slash contraction through
``bilinear.by_row_blocks`` and keep only the per-trial arrays their checks
read, so their memory does not grow with n-row covariant stacks.  The
blocks give the bytes of one pass, and a NaN in any block still fails its
check.  ``generators.random_spinors`` draws its spinors in one call, with
the bits and the stream position of two.
"""

import tracemalloc

import numpy as np
import pytest

from spinorlab import bilinear, cli, generators, rim
from spinorlab import rng as streams
from spinorlab.spinor import quad_scale
from spinorlab.suites import SuiteConfig, _per_row, _rel, suite_fpk, suite_rim


def _checks(report) -> dict:
    return {c["name"]: c for c in report["checks"]}


@pytest.mark.parametrize("per_row", [True, False], ids=["array_couplings", "scalar_couplings"])
def test_pointwise_residuals_in_blocks_are_the_single_pass(per_row, monkeypatch, rng):
    psis = generators.random_spinors(rng, 10)
    a, b = generators.random_valid_params(rng, 10)
    params = rim.validate(a, b) if per_row else rim.validate(a[0], b[0])
    one_pass = rim.pointwise_residuals(psis, params)
    monkeypatch.setattr(bilinear, "_BLOCK", 3)
    blocks = rim.pointwise_residuals(psis, params)
    assert [x.tobytes() for x in blocks] == [x.tobytes() for x in one_pass]


def test_by_row_blocks_writes_every_block_into_one_output(monkeypatch):
    monkeypatch.setattr(bilinear, "_BLOCK", 3)
    rows = np.arange(10.0)
    calls = []

    def fn(x):
        calls.append(len(x))
        return x * 2.0, np.stack([x, -x], axis=1)

    doubled, pairs = bilinear.by_row_blocks(fn, rows)
    assert calls == [3, 3, 3, 1]
    assert doubled.tolist() == (rows * 2.0).tolist() and pairs.tolist() == [[x, -x] for x in rows]
    assert bilinear.by_row_blocks(lambda x: (x + 1.0,), np.zeros(0))[0].shape == (0,)


@pytest.mark.parametrize("suite", ["clifford", "fpk", "plane", "props", "rim"])
def test_verify_in_small_blocks_writes_the_bytes_of_one_pass(suite, tmp_path, monkeypatch):
    reports = []
    for block in (7, 10**6):
        monkeypatch.setattr(bilinear, "_BLOCK", block)
        out = tmp_path / f"{block}.json"
        assert cli.main(["verify", "--suite", suite, "--trials", "50", "--seed", "3", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_a_nan_in_the_second_block_fails_dirac_dual_reality(monkeypatch):
    monkeypatch.setattr(bilinear, "_BLOCK", 3)
    compute_batch = bilinear.compute_batch
    calls = []

    def with_nan(psis, *args):
        cov = compute_batch(psis, *args)
        calls.append(len(psis))
        if len(calls) == 2:  # rows 3-5 of the first covariant pass
            cov["K"][1, 2] = complex(0.0, np.nan)
        return cov

    monkeypatch.setattr(bilinear, "compute_batch", with_nan)
    checks = _checks(suite_fpk(SuiteConfig(trials=10)))
    assert checks["dirac_dual_reality"]["value"] is None and checks["dirac_dual_reality"]["pass"] is False
    assert checks["fpk_j2_ab"]["pass"] and checks["chiral_overlap_split"]["pass"] and checks["fast_vs_matrix"]["pass"]


def test_a_nan_in_the_second_block_fails_del_a_identity(monkeypatch):
    monkeypatch.setattr(bilinear, "_BLOCK", 3)
    residuals = rim._residuals
    calls = []

    def with_nan(*block):
        heisenberg, del_a, del_b = residuals(*block)
        calls.append(len(del_a))
        if len(calls) == 2:  # rows 3-5 of the pointwise pass
            del_a[1] = np.nan
        return heisenberg, del_a, del_b

    monkeypatch.setattr(rim, "_residuals", with_nan)
    checks = _checks(suite_rim(SuiteConfig(trials=10)))
    assert checks["del_A_identity"]["value"] is None and checks["del_A_identity"]["pass"] is False
    assert checks["heisenberg_pointwise"]["pass"] and checks["del_B_identity"]["pass"]


@pytest.mark.parametrize("suite", ["clifford", "fpk", "plane", "props", "rim"])
def test_verify_holds_its_per_trial_arrays_plus_one_block(suite, tmp_path):
    # at 10^4 trials n-row stacks read 15.6 (clifford), 20.5 (fpk), 18.0
    # (plane), 13.4 (props) and 25.1 MiB (rim); blocked passes read about
    # 4.7, 4.0, 13.7, 3.2 and 5.3 MiB, where plane still holds the n-row
    # arrays of its other checks
    mib = 16 if suite == "plane" else 10
    tracemalloc.start()
    try:
        code = cli.main(["verify", "--suite", suite, "--trials", "10000", "--output", str(tmp_path / "r.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert peak < mib * 2**20


@pytest.mark.parametrize("n", [1, 7, 1000, 20_008])
def test_random_spinors_has_the_bits_and_stream_position_of_two_draws(n):
    gen, ref = streams.stream(5, "props"), streams.stream(5, "props")
    psis = generators.random_spinors(gen, n)
    want = ref.standard_normal((n, 4)) + 1j * ref.standard_normal((n, 4))
    assert psis.shape == (n, 4) and psis.tobytes() == want.tobytes()
    assert gen.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


@pytest.mark.parametrize("trials", [5, 2500], ids=["one_block", "capped_in_two_blocks"])
def test_invariance_checks_in_blocks_report_the_whole_dict_values(trials):
    # phase_invariance and quadratic_scaling as whole-stack covariant dicts,
    # redrawn from the fpk stream in the suite's order
    gen = streams.stream(0, "fpk")
    psis = generators.random_spinors(gen, trials)
    generators.random_spinors(gen, trials)  # fast_vs_matrix's bases, r1 and r2
    generators.random_complex(gen, trials), generators.random_complex(gen, trials)
    m = min(trials, 2000)
    sub = psis[:m]
    theta = gen.uniform(0.0, 2.0 * np.pi, m)
    c = gen.uniform(0.3, 2.5, m)
    base_cov = bilinear.compute_batch(sub)
    rotated = bilinear.compute_batch(np.exp(1j * theta)[:, None] * sub)
    scaled_cov = bilinear.compute_batch(c[:, None] * sub)
    subquad, c2 = quad_scale(sub), c**2
    phase = max(np.max(_rel(rotated[k] - base_cov[k], subquad)) for k in "ABJKS")
    scaling = [np.abs(scaled_cov[k] - _per_row(c2, base_cov[k]) * base_cov[k]) for k in "AJS"]
    scaling = max(np.max(d / _per_row(c2 * subquad, d)) for d in scaling)
    checks = _checks(suite_fpk(SuiteConfig(trials=trials)))
    assert (checks["phase_invariance"]["trials"], checks["phase_invariance"]["value"]) == (m, float(phase))
    assert (checks["quadratic_scaling"]["trials"], checks["quadratic_scaling"]["value"]) == (m, float(scaling))
