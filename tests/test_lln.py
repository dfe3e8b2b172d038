import contextlib
import hashlib
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import tan_quad
from dgeo.errors import DomainError
from dgeo import cli, lln
from dgeo import qgauss as qg


def cfg_15(**kw):
    base = dict(q=1.5, d=1, v=(0.0,), k_max=1000, reps=100, seed=11)
    base.update(kw)
    return lln.SimConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        lln.SimConfig(q=3.5, d=1, v=(0.0,))
    with pytest.raises(DomainError):
        lln.SimConfig(q=1.5, d=1, v=(0.0, 1.0))
    with pytest.raises(DomainError):
        lln.SimConfig(q=1.5, d=1, v=(0.0,), reps=0)


@pytest.mark.parametrize("obj", [
    {"q": 1.5, "v": [0.0]},                                  # no d
    {"d": 1, "v": [0.0]},                                    # no q
    {"q": math.nan, "d": 1, "v": [0.0]},
    {"q": 1.5, "d": 1, "v": [math.nan]},
    {"q": 1.5, "d": 0, "v": []},
    {"q": 1.5, "d": 1, "v": [0.0], "S": [[math.nan]]},
    {"q": 1.5, "d": 2, "v": [0.0]},                          # v of the wrong length
    {"q": 1.5, "d": 1, "v": [0.0], "variant": "diag"},
    {"q": "abc", "d": 1, "v": [0.0]},
    [1.5, 1, [0.0]],
    {"q": 1.5, "d": 1, "v": [0.0], "seed": 1.5},
    {"q": 1.5, "d": 1, "v": [0.0], "seed": True},
    {"q": 1.5, "d": 1, "v": [0.0], "seed": -1},
    {"q": 1.5, "d": 1, "v": [0.0], "seed": "3"},
])
def test_config_from_json_rejects_malformed(obj):
    with pytest.raises(DomainError):
        lln.SimConfig.from_json(obj)


@pytest.mark.parametrize("d", [2.0, True])
def test_config_refuses_a_non_integer_d_by_the_d_rule(d):
    # the d rule of QGaussianParams, not "malformed simulation config"
    with pytest.raises(DomainError, match="^d must be a positive integer$"):
        lln.SimConfig.from_json({"q": 1.5, "d": d, "v": [0.0, 0.0]})


def test_config_from_json_inverts_to_json():
    cfg = lln.SimConfig(q=1.3, d=2, v=(0.5, -1.0), variant="trace_d", k_max=500, reps=120,
                        seed=9, eps_grid=(0.5,), S=((1.5, 0.2), (0.2, 0.5)))
    assert lln.SimConfig.from_json(cfg.to_json()) == cfg
    # keys left out take the class defaults
    assert lln.SimConfig.from_json({"q": 1.5, "d": 1, "v": [0.0]}) == \
        lln.SimConfig(q=1.5, d=1, v=(0.0,))


@pytest.mark.parametrize("kw", [dict(seed=-1), dict(seed=1.5), dict(seed=2.0), dict(seed=True),
                                dict(seed=False), dict(seed=None), dict(seed="3"),
                                dict(seed=np.float64(3.0)), dict(seed=np.int64(-2)),
                                dict(reps=2 ** 32)])
def test_config_rejects_bad_seed_and_reps(kw):
    with pytest.raises(DomainError, match="seed|reps"):
        cfg_15(**kw)


def test_config_takes_any_non_negative_integer_seed():
    for seed in (0, 2 ** 64 + 5, 3 ** 90, np.int64(7), np.uint32(8)):
        cfg = cfg_15(seed=seed)
        assert cfg.seed == seed and type(cfg.seed) is int
    assert cfg_15(reps=2 ** 32 - 1).reps == 2 ** 32 - 1


@pytest.mark.parametrize("grid", [(), (0.0, -1.0), (0.5, math.nan), (math.inf,), (1e-320,),
                                  (0.5, 1e80)])
def test_config_rejects_bad_eps_grid(grid):
    # 1e-320**4 is 0 and 1e80**4 overflows: verify_bounds divides by k**3 eps**4
    with pytest.raises(DomainError, match="eps_grid"):
        cfg_15(eps_grid=grid)


def test_schedule_is_log_spaced():
    assert cfg_15(k_max=10_000).k_schedule() == [10, 100, 1000, 10000]
    assert cfg_15(k_max=2500).k_schedule() == [10, 100, 1000, 2500]
    assert cfg_15(k_max=5).k_schedule() == [5]


# ---------------------------------------------------------------------------
# run_lln
# ---------------------------------------------------------------------------


def test_reproducibility_bitwise():
    cfg = cfg_15()
    a = lln.run_lln(cfg)
    b = lln.run_lln(cfg)
    assert np.array_equal(a.averages, b.averages)
    assert a.averages_csv() == b.averages_csv()


def test_seed_changes_output():
    a = lln.run_lln(cfg_15(seed=1))
    b = lln.run_lln(cfg_15(seed=2))
    assert not np.array_equal(a.averages, b.averages)


def test_gaussian_baseline_classical_lln():
    cfg = lln.SimConfig(q=1.0, d=1, v=(0.0,), k_max=10_000, reps=100, seed=5)
    rep = lln.run_lln(cfg)
    sigma = math.sqrt(qg.central_second(qg.repetition(cfg.params(), 1), 0, 0))
    within = np.sum(rep.deviations[:, -1, 0] <= 4 * sigma / math.sqrt(cfg.k_max))
    assert within >= 95


def test_median_deviation_nonincreasing():
    cfg = lln.SimConfig(q=1.5, d=1, v=(2.0,), k_max=10_000, reps=100, seed=42)
    rep = lln.run_lln(cfg)
    med = rep.median_deviation(0)
    ks = rep.k_schedule
    idx = [ks.index(k) for k in (100, 1000, 10000)]
    vals = med[idx]
    assert vals[0] >= vals[1] >= vals[2]


def test_target_zero_for_centered_law():
    rep = lln.run_lln(cfg_15(v=(0.0,)))
    assert rep.targets[0] == 0.0


def test_prefix_law_moments():
    # first coordinate of the long joint behaves like the k=1 law
    cfg = cfg_15(k_max=100, reps=2000, seed=3)
    law = qg.repetition(cfg.params(), cfg.k_max)
    first = qg.sample_joint(law, cfg.reps, seed=17)[:, 0, 0]
    var = qg.central_second(qg.repetition(cfg.params(), 1), 0, 0)
    se_mean = math.sqrt(var / cfg.reps)
    assert abs(first.mean()) <= 4 * se_mean
    c4 = qg.central_fourth(qg.repetition(cfg.params(), 1), 0, 0, 0, 0)
    se_var = math.sqrt((c4 - var ** 2) / cfg.reps)
    assert abs(first.var() - var) <= 4 * se_var


def test_q1_machinery_reduces_to_iid_gaussian():
    # with q = 1 the path sampler consumes the stream exactly like a plain
    # i.i.d. Gaussian draw (no mixing variable), so outputs coincide
    cfg = lln.SimConfig(q=1.0, d=1, v=(0.3,), k_max=50, reps=1, seed=21)
    law = qg.repetition(cfg.params(), cfg.k_max)
    child = np.random.SeedSequence(cfg.seed).spawn(cfg.reps)[0]
    path = qg.sample_joint(law, 1, np.random.default_rng(child))[0]
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    sigma = math.sqrt(1.0 / (2.0 * law.beta_k))
    direct = 0.3 + sigma * rng.standard_normal((cfg.k_max, 1))
    assert np.allclose(path, direct, rtol=0, atol=1e-15)


def test_exceedance_frequencies_in_unit_interval():
    rep = lln.run_lln(cfg_15(reps=100, k_max=100))
    for eps in (0.01, 0.5, 10.0):
        freqs = rep.exceedance(eps)
        assert np.all((freqs >= 0) & (freqs <= 1))
    assert np.all(rep.exceedance(10.0) == 0.0)


def test_trace_variant_statistics():
    cfg = lln.SimConfig(q=1.2, d=2, v=(0.5, -0.5), variant="trace_d",
                        k_max=100, reps=100, seed=9)
    rep = lln.run_lln(cfg)
    assert rep.stat_labels == ["F1", "F2", "F11", "F12", "F22"]
    law1 = qg.repetition(cfg.params(), 1)
    assert rep.targets[2] == pytest.approx(0.25 + qg.central_second(law1, 0, 0))
    assert rep.targets[3] == pytest.approx(-0.25 + qg.central_second(law1, 0, 1))


def _materialised_averages(cfg):
    """Checkpoint averages from whole paths drawn by sample_joint on each
    rep's child stream, reduced with one reduceat per path."""
    law = qg.repetition(cfg.params(), cfg.k_max)
    ks = np.asarray(cfg.k_schedule())
    iu, ju = np.triu_indices(cfg.d)
    out = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.reps):
        x = qg.sample_joint(law, 1, np.random.default_rng(child))[0]
        stats = x if cfg.variant == "identity" else np.column_stack([x, x[:, iu] * x[:, ju]])
        seg = np.add.reduceat(stats, np.concatenate([[0], ks[:-1]]), axis=0)
        out.append(np.cumsum(seg, axis=0) / ks[:, None])
    return np.stack(out)


@pytest.mark.parametrize("chunk,kw", [
    # several reps per buffer fill; 40 reps is not a multiple of the 65 per fill
    (None, dict(q=1.5, d=1, v=(0.7,), variant="identity", k_max=2003, reps=40)),
    (None, dict(q=1.3, d=2, v=(0.5, -0.4), variant="trace_d", k_max=1000, reps=150,
                S=((1.2, 0.3), (0.3, 0.8)))),
    # one rep over several fills, the last one partial
    (None, dict(q=1.5, d=1, v=(0.7,), variant="identity", k_max=300_001, reps=2)),
    (None, dict(q=1.2, d=2, v=(0.5, -0.4), variant="trace_d", k_max=150_001, reps=2)),
    (None, dict(q=1.2, d=3, v=(0.5, -0.4, 1.0), variant="trace_d", k_max=100_003, reps=2,
                S=((1.0, 0.2, 0.0), (0.2, 0.9, -0.1), (0.0, -0.1, 1.1)))),
    (None, dict(q=1.0, d=3, v=(0.5, -0.4, 1.0), variant="trace_d", k_max=50_001, reps=3)),
    # 100 normals per fill: fills of 100 or 50 steps start exactly at the
    # checkpoints 100 and 1000
    (100, dict(q=1.5, d=1, v=(0.7,), variant="identity", k_max=30, reps=7)),
    (100, dict(q=1.5, d=1, v=(0.7,), variant="identity", k_max=1050, reps=3)),
    (100, dict(q=1.3, d=2, v=(0.5, -0.4), variant="trace_d", k_max=1000, reps=3)),
], ids=["d1-block", "d2-trace-block", "d1-chunks", "d2-trace-chunks", "d3-trace-chunks",
        "q1-d3-trace", "small-block", "small-chunks-at-checkpoints",
        "small-d2-trace-chunks-at-checkpoints"])
def test_streaming_matches_materialised_paths(chunk, kw, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(lln, "_CHUNK", chunk)
    cfg = lln.SimConfig(seed=29, **kw)
    ref = _materialised_averages(cfg)
    got = lln.run_lln(cfg).averages
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_rep_child_built_alone_matches_spawned_child():
    # _run_reps builds the stream of rep r as SeedSequence(seed, spawn_key=(r,))
    for seed, reps in ((11, 40), (0, 5000)):
        spawned = np.random.SeedSequence(seed).spawn(reps)
        for r in (0, 1, 17, reps - 1):
            alone = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
            ref = np.random.default_rng(spawned[r])
            assert np.array_equal(alone.standard_normal(1000), ref.standard_normal(1000))
            assert alone.chisquare(7.0) == ref.chisquare(7.0)


@pytest.mark.parametrize("edges", [(0, 1, None), (0, 7, 130, None)])
def test_rep_partitions_are_bitwise_equal(edges):
    cfg = lln.SimConfig(q=1.3, d=2, v=(0.5, -0.4), variant="trace_d", k_max=1000,
                        reps=200, seed=13, S=((1.2, 0.3), (0.3, 0.8)))
    edges = [cfg.reps if e is None else e for e in edges]
    parts = [lln._run_reps(cfg, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    assert np.array_equal(np.concatenate(parts), lln._run_reps(cfg, 0, cfg.reps))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 3 ** 90],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+5", "3^90"])
def test_child_streams_match_numpy_seed_sequence(seed):
    # numpy's own SeedSequence is the oracle; 3**90 has five seed words, so
    # it takes the round that mixes in the seed words past the fourth
    whole = lln._child_words(seed, 0, 5000)
    rows = [(r, whole[r]) for r in (0, 1, 64, 65, 4999)]
    rows += [(65, lln._child_words(seed, 60, 70)[5]),  # a window that starts at lo > 0
             (2 ** 32 - 1, lln._child_words(seed, 2 ** 32 - 2, 2 ** 32)[1])]
    for r, words in rows:
        got = np.random.Generator(np.random.PCG64(lln._Words(words)))
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        assert got.bit_generator.state == ref.bit_generator.state, r
        assert np.array_equal(got.standard_normal(1000), ref.standard_normal(1000)), r
        assert got.chisquare(7.0) == ref.chisquare(7.0), r


# SHA-256 of run_lln(SimConfig(**config)).averages_csv(), recorded when each
# rep still built its own SeedSequence (the bulk hash must not change a byte);
# the q > 1 ones were re-recorded when _constants stopped reading 1/(q_k - 1)
# from the rounded q_k, which moved the averages by at most 2.5e-12 relative
AVERAGES_HASHES = [
    (dict(q=1.3, d=2, v=(0.1, -0.2), variant="trace_d", k_max=1000, reps=300,
          seed=2 ** 31 - 1, S=((1.2, 0.3), (0.3, 0.8))),
     "a81e675cab7d6749959a2802fc7e8c284c7ac2a8855fa6440e78dce0a1646f73"),
    (dict(q=1.5, d=1, v=(0.7,), k_max=300_001, reps=2, seed=3 ** 90),
     "240c542487cc12a10f47d8c5c38db5454c39cf5f41bfb42a05e02346b3419e63"),
    (dict(q=1.0, d=1, v=(0.0,), k_max=20, reps=70, seed=0),
     "ce882851ae1f80e53c5fa133172ea2fafc071d685654f034feaf4a141acd55bd"),
]


@pytest.mark.parametrize("config,digest", AVERAGES_HASHES, ids=["d2-trace", "d1-long", "q1"])
def test_averages_bit_identical(config, digest):
    csv = lln.run_lln(lln.SimConfig(**config)).averages_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def _lln_run_out(tmp_path, name, config, *flags):
    """Run `dgeo lln run --config ... --out DIR` in process; the bundle's directory."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    argv = ["lln", "run", "--config", str(path), "--out", str(tmp_path / name), *flags]
    assert cli.main(argv) == 0
    return tmp_path / name


def test_bundle_averages_csv_is_the_report_text(tmp_path, capsys):
    # the bundle encodes averages.csv by blocks of reps; 300 reps cross a block edge
    config, digest = AVERAGES_HASHES[0]
    cfg = lln.SimConfig(**config)
    data = (_lln_run_out(tmp_path, "b", cfg.to_json()) / "averages.csv").read_bytes()
    assert data == lln.run_lln(cfg).averages_csv().encode()
    assert hashlib.sha256(data).hexdigest() == digest


PEAK_CONFIG = dict(q=1.3, d=2, v=[0.3, -0.2], variant="trace_d", k_max=1000, reps=5000,
                   seed=5, S=[[1.2, 0.3], [0.3, 0.8]])


def _peak_of_lln_run_out(tmp_path, *flags, stdout=None):
    """The tracemalloc peak of a 5000-rep `lln run --out`, and the bundle's directory."""
    import tracemalloc

    _lln_run_out(tmp_path, "warm", {**PEAK_CONFIG, "k_max": 100, "reps": 100})  # caches
    with contextlib.redirect_stdout(stdout or sys.stdout):
        tracemalloc.start()
        try:
            out = _lln_run_out(tmp_path, "b", PEAK_CONFIG, *flags)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()


def test_lln_run_out_holds_averages_csv_once(tmp_path, capsys):
    # the bundle holds averages.csv whole only as the bytes it writes; a whole
    # str, its lines and its encoding would take the peak past twice the file
    peak, out = _peak_of_lln_run_out(tmp_path)
    assert peak <= 2 * (out / "averages.csv").stat().st_size


def test_lln_run_csv_out_prints_averages_csv_by_blocks(tmp_path, capsys):
    # with --format csv as well, stdout (here a file) gets each block as it is made and
    # the bundle keeps the same bytes once: the peak keeps the bound of the test above
    with open(tmp_path / "stdout", "w") as fh:
        peak, out = _peak_of_lln_run_out(tmp_path, "--format", "csv", stdout=fh)
    data = (out / "averages.csv").read_bytes()
    assert peak <= 2 * len(data)
    assert (tmp_path / "stdout").read_bytes() == data


@settings(max_examples=50)
@given(seed=st.integers(0, 2 ** 70), d=st.sampled_from([1, 2]),
       variant=st.sampled_from(["identity", "trace_d"]), q=st.sampled_from([1.0, 1.3]),
       k_max=st.integers(1, 300), chunk=st.sampled_from([None, 500]), data=st.data())
def test_rep_partition_property(seed, d, variant, q, k_max, chunk, data):
    # a small buffer puts one rep in several fills (k_max > 250) or few reps in one
    reps = data.draw(st.integers(1, 150), label="reps")
    cuts = data.draw(st.lists(st.integers(0, reps), max_size=4), label="cuts")
    edges = sorted({0, reps, *cuts})
    cfg = lln.SimConfig(q=q, d=d, v=(0.5, -0.4)[:d], variant=variant, k_max=k_max,
                        reps=reps, seed=seed)
    with mock.patch.object(lln, "_CHUNK", chunk or lln._CHUNK):
        parts = [lln._run_reps(cfg, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        whole = lln._run_reps(cfg, 0, reps)
    assert np.array_equal(np.concatenate(parts), whole)


def test_memory_does_not_grow_with_path_length():
    import tracemalloc

    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=2_000_000, reps=2, seed=3)
    tracemalloc.start()
    try:
        lln.run_lln(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_averages_csv_rows_match_nested_loop():
    cfg = lln.SimConfig(q=1.2, d=2, v=(0.5, -0.5), variant="trace_d", k_max=250,
                        reps=7, seed=9)
    rep = lln.run_lln(cfg)
    lines = ["k,rep,stat,average,deviation"]
    for r in range(cfg.reps):
        for ci, k in enumerate(rep.k_schedule):
            for si, lab in enumerate(rep.stat_labels):
                lines.append(f"{k},{r},{lab},{rep.averages[r, ci, si]:.17g},"
                             f"{rep.deviations[r, ci, si]:.17g}")
    assert rep.averages_csv() == "\n".join(lines) + "\n"


def _encoded_fields(x) -> list:
    """The fields of lln._csv_rows's one row of the floats x, to compare with format's."""
    row = bytes(lln._csv_rows([], np.reshape(np.asarray(x, float), (1, -1)))).decode()
    assert row.endswith("\n")
    return row[:-1].split(",")


def _format_fields(x) -> list:
    return [format(float(v), ".17g") for v in np.ravel(x)]


def test_csv_encoder_matches_format_on_a_million_seeded_doubles():
    # random 64-bit patterns viewed as doubles (every exponent, subnormals, zeros,
    # inf and nan among them) and normal draws scaled by 10**U(-30, 30)
    rng = np.random.default_rng(20101)
    for _ in range(8):
        bits = rng.integers(0, 2 ** 64, 2 ** 16, dtype=np.uint64, endpoint=False)
        scaled = rng.standard_normal(2 ** 16) * 10.0 ** rng.uniform(-30, 30, 2 ** 16)
        for x in (bits.view(np.float64), scaled):
            assert _encoded_fields(x) == _format_fields(x)


def test_csv_encoder_matches_format_at_powers_of_ten():
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    x = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    assert _encoded_fields(x) == _format_fields(x)
    assert _encoded_fields(-x) == _format_fields(-x)


def test_csv_encoder_matches_format_at_ties():
    # m 2**-k with m odd is exact in 18 significant digits (those of m 5**k), the
    # last a 5: 17 digits round half to even, as 1 + 2**-17 = 1.00000762939453125
    # prints ...312
    rng = np.random.default_rng(7)
    ties = [1 + 2 ** -17]
    for k in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** k), min(10 ** 18 // 5 ** k, 2 ** 53)
        ties += [m / 2 ** k for m in (int(m) | 1 for m in rng.integers(lo, hi, 100))
                 if len(str(m * 5 ** k)) == 18 and m < 2 ** 53]
    assert len(ties) > 2000 and format(ties[0], ".17g") == "1.0000076293945312"
    x = np.array(ties)
    assert _encoded_fields(x) == _format_fields(x)
    assert _encoded_fields(-x) == _format_fields(-x)


def test_csv_encoder_matches_format_at_its_edges():
    tiny = np.finfo(float).tiny
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny, np.nextafter(tiny, 0), -1e-310, np.inf,
             -np.inf, np.nan, -np.nan, 1.0, 1e16, 1e17, 1e-4, 1e-5, 99999999999999999.0]
    edges += [s * np.nextafter(v, w) for s in (1, -1) for v in (1e200, 1e-200)
              for w in (0, v, np.inf)]
    assert _encoded_fields(edges) == _format_fields(edges)


def test_csv_digit_group_table_rows():
    # row i of the 4-digit group table is the ASCII of f"{i:04d}"
    quads = lln._g17_tables()[1]
    assert quads.view("S4").tolist() == [f"{i:04d}".encode() for i in range(10 ** 4)]


def test_csv_encoder_matches_format_by_digit_group():
    # 17-digit mantissas with 0000 in each 4-digit group after the lead digit, and with
    # 0 to 16 trailing zeros, at every notation kind (fixed for E = -4 .. 16, e-05, e+17,
    # two- and three-digit exponents, the last past the proven range) and both signs
    rng = np.random.default_rng(34)
    digits = [str(m) for m in rng.integers(10 ** 16, 10 ** 17, 200)]
    mantissas = [m[:1 + 4 * j] + "0000" + m[5 + 4 * j:] for j in range(4) for m in digits[:160]]
    mantissas += [m[:17 - t] + "0" * t for t in range(17) for m in digits[160:]]
    exps = list(range(-5, 18)) + [s * e for s in (1, -1) for e in (20, 99, 100, 199, 250)]
    x = np.array([float(f"{m[0]}.{m[1:]}e{e}") for m in mantissas for e in exps])
    assert _encoded_fields(x) == _format_fields(x)
    assert _encoded_fields(-x) == _format_fields(-x)
    # the mantissas keep their groups: 0000 shows in every group, each trailing count occurs
    shown = [format(v, ".16e")[:18].replace(".", "") for v in x]  # the 17 digits
    for j in range(4):
        assert sum(d[1 + 4 * j:5 + 4 * j] == "0000" for d in shown) >= 100 * len(exps)
    assert {len(d) - len(d.rstrip("0")) for d in shown} == set(range(17))


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bound_scaling_in_eps():
    cfg = cfg_15()
    b1 = lln.chebyshev_bounds(cfg, 100, 0.5)
    b2 = lln.chebyshev_bounds(cfg, 100, 0.25)
    assert b2.bound_F / b1.bound_F == pytest.approx(16.0, rel=1e-12)
    assert b2.bound_FF / b1.bound_FF == pytest.approx(4.0, rel=1e-12)


def test_bound_F_decays_like_k_minus_2():
    cfg = cfg_15()
    b1 = lln.chebyshev_bounds(cfg, 10_000, 0.5).bound_F
    b2 = lln.chebyshev_bounds(cfg, 100_000, 0.5).bound_F
    assert b1 / b2 == pytest.approx(100.0, rel=1e-2)


def test_bound_moments_match_quadrature_recomputation():
    # recompute the two fourth-moment ingredients by direct quadrature
    cfg = cfg_15()
    law1 = qg.repetition(cfg.params(), 1)
    law2 = qg.repetition(cfg.params(), 2)
    ey4 = tan_quad(lambda x: x ** 4 * qg.joint_density(law1, np.array([[[x]]]))[0])
    from scipy import integrate
    ey22, _ = integrate.dblquad(
        lambda u1, u2: math.tan(u1) ** 2 * math.tan(u2) ** 2
        * qg.joint_density(law2, np.array([[[math.tan(u1)], [math.tan(u2)]]]))[0]
        / math.cos(u1) ** 2 / math.cos(u2) ** 2,
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2, epsabs=1e-11)
    k, eps = 100, 0.5
    oracle = ey4 / (k ** 3 * eps ** 4) + 3 * (k - 1) * ey22 / (k ** 3 * eps ** 4)
    b = lln.chebyshev_bounds(cfg, k, eps).bound_F
    assert b == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -0.5, 1e-320, 1e-80, 1e80, 1e308])
def test_bounds_reject_an_eps_that_is_not_positive_and_finite(eps):
    # NaN passes a bare eps <= 0 test and makes both bounds NaN; k**3 eps**4 is
    # 0 at 1e-320 (ZeroDivisionError), subnormal at 1e-80 and overflows at 1e80
    with pytest.raises(DomainError, match="positive finite eps"):
        lln.chebyshev_bounds(cfg_15(), 100, eps)


@pytest.mark.parametrize("k", [0, 10 ** 103, 10 ** 400], ids=["0", "1e103", "1e400"])
def test_bounds_reject_a_k_whose_cube_leaves_double_range(k):
    # k**3 eps**4 raised "int too large to convert to float" at k = 10**103
    with pytest.raises(DomainError, match="k >= 1 and a positive finite eps"):
        lln.chebyshev_bounds(cfg_15(), k, 0.5)


def test_bounds_accept_the_ends_of_the_eps_range():
    # k**3 eps**4 at its smallest normal and largest finite double
    k = 100
    for eps in (sys.float_info.min ** 0.25 / k ** 0.75 * (1 + 1e-9),
                sys.float_info.max ** 0.25 / k ** 0.75 * (1 - 1e-9)):
        b = lln.chebyshev_bounds(cfg_15(), k, eps)
        assert b.bound_F >= 0 and b.bound_FF >= 0


def test_bound_FF_vanishing_cross_term_at_q1():
    cfg = lln.SimConfig(q=1.0, d=1, v=(0.0,), k_max=100, reps=100, seed=0)
    law2 = qg.repetition(cfg.params(), 2)
    assert qg.fij_pair_moments(law2)[1] == pytest.approx(0.0, abs=1e-14)


def test_wilson_interval_basic():
    lo, hi = lln.wilson_interval(0, 500)
    assert lo == 0.0
    assert 0 < hi < 0.02
    lo, hi = lln.wilson_interval(250, 500)
    assert lo < 0.5 < hi


# ---------------------------------------------------------------------------
# verify_bounds
# ---------------------------------------------------------------------------


def test_verify_bounds_all_pass():
    cfg = lln.SimConfig(q=1.5, d=1, v=(0.0,), k_max=1000, reps=500, seed=7,
                        eps_grid=(0.25, 0.5, 1.0))
    table = lln.verify_bounds(cfg)
    assert table.all_pass
    ks = {r.k for r in table.rows}
    assert ks == {10, 100, 1000}


def test_verify_bounds_trivial_pass_when_bound_capped():
    cfg = cfg_15(reps=100, eps_grid=(0.01,), k_max=10)
    table = lln.verify_bounds(cfg)
    assert all(r.bound == 1.0 for r in table.rows)
    assert table.all_pass


def test_verify_bounds_gaussian_baseline():
    cfg = lln.SimConfig(q=1.0, d=1, v=(0.0,), k_max=1000, reps=200, seed=13,
                        eps_grid=(0.25, 0.5))
    assert lln.verify_bounds(cfg).all_pass


def test_verify_bounds_requires_enough_reps():
    with pytest.raises(DomainError):
        lln.verify_bounds(cfg_15(reps=99))


def test_trace_variant_rows_carry_note():
    cfg = lln.SimConfig(q=1.2, d=2, v=(0.0, 0.0), variant="trace_d",
                        k_max=100, reps=100, seed=2, eps_grid=(0.5,))
    table = lln.verify_bounds(cfg)
    notes = {r.stat: r.note for r in table.rows}
    assert notes["F1"] == ""
    assert "no almost-sure guarantee" in notes["F11"]


def test_verify_bounds_takes_moments_once_per_statistic(monkeypatch):
    cfg = lln.SimConfig(q=1.2, d=2, v=(0.3, -0.2), variant="trace_d",
                        k_max=100, reps=100, seed=4, eps_grid=(0.5, 1.0))
    report = lln.run_lln(cfg)
    calls = {"repetition": 0, "moments": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qg, "repetition", counted("repetition", qg.repetition))
    for fname in ("fi_pair_moments", "fij_pair_moments"):
        monkeypatch.setattr(qg, fname, counted("moments", getattr(qg, fname)))
    table = lln.verify_bounds(cfg, report)
    assert len(table.rows) == 5 * 2 * 2
    assert calls == {"repetition": 1, "moments": 5}
    monkeypatch.undo()
    # the same numbers as one chebyshev_bounds call per cell
    pairs = {"F11": (0, 0), "F12": (0, 1), "F22": (1, 1)}
    for r in table.rows:
        if r.stat in pairs:
            want = lln.chebyshev_bounds(cfg, r.k, r.eps, *pairs[r.stat]).bound_FF
        else:
            want = lln.chebyshev_bounds(cfg, r.k, r.eps, i=int(r.stat[1]) - 1).bound_F
        assert r.bound == min(want, 1.0)


def test_bound_table_csv_shape():
    cfg = cfg_15(reps=100, eps_grid=(0.5,))
    table = lln.verify_bounds(cfg)
    csv = table.to_csv()
    assert csv.splitlines()[0].startswith("k,eps,stat")
    assert len(csv.splitlines()) == len(table.rows) + 1


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------


def test_summability_terms_decay_like_k2():
    s = lln.borel_cantelli_summability(cfg_15(), 0.5)
    assert np.all(np.isfinite(s.terms_times_k2))
    spread = np.max(s.terms_times_k2[1:]) - np.min(s.terms_times_k2[1:])
    assert spread <= 0.05 * np.max(s.terms_times_k2)


def test_summability_partial_sums_converge():
    s = lln.borel_cantelli_summability(cfg_15(), 0.5, k_terms=100_000)
    assert s.final_relative_change <= 1e-3
    assert np.all(np.diff(s.partial_sums) >= 0)


def test_summability_monotone_in_eps():
    s_small = lln.borel_cantelli_summability(cfg_15(), 0.5)
    s_big = lln.borel_cantelli_summability(cfg_15(), 1.0)
    assert np.all(s_big.partial_sums < s_small.partial_sums)


@pytest.mark.parametrize("k_terms,prev", [(5, 1), (15, 10), (2500, 1000)])
def test_summability_change_is_against_previous_checkpoint(k_terms, prev):
    s = lln.borel_cantelli_summability(cfg_15(), 0.5, k_terms=k_terms)
    if prev == 1:   # S_1 = S_2 minus the second term
        two = lln.borel_cantelli_summability(cfg_15(), 0.5, k_terms=2)
        base = two.partial_sums[-1] - two.terms_times_k2[-1] / 4
    else:
        base = lln.borel_cantelli_summability(cfg_15(), 0.5, k_terms=prev).partial_sums[-1]
    expected = (s.partial_sums[-1] - base) / s.partial_sums[-1]
    assert s.final_relative_change > 0
    assert s.final_relative_change == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("eps,k_terms", [(0.5, 1), (0.5, 0), (0.0, 100), (-0.5, 100),
                                         (math.nan, 100), (1e-320, 100), (1e-78, 100),
                                         (1e80, 100), (1e75, 1000)])
def test_summability_rejects_bad_arguments(eps, k_terms):
    # at eps = 1e-320 the sums were inf and final_relative_change NaN
    with pytest.raises(DomainError):
        lln.borel_cantelli_summability(cfg_15(), eps, k_terms=k_terms)


def test_summability_rejects_sums_beyond_double_range():
    # k**3 eps**4 is a normal double, but E(Y1^4) ~ 30 at q = 2.99 makes
    # the first term ~ 2e308
    cfg = lln.SimConfig(q=2.99, d=1, v=(0.0,))
    with pytest.raises(DomainError, match="sums leave double range"):
        lln.borel_cantelli_summability(cfg, 1.3e-77, k_terms=100)
