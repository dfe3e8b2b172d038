"""Command-line front end.

Every subcommand is a thin mapping onto one library operation; no
numerics live here.  One output rule: stdout is JSON, with floats in
shortest round-trip form, or CSV under --format csv; --out bundles the
printed text, or the verb's named files, plus a SHA-256 manifest, so
seeded runs can be reproduced byte for byte.  _emit does all of it; a
library result prints as its dataclass fields in declaration order
(_jsonable), so no verb lists them by hand.  Only `gauge eval`/`conjugate`
(a bare float), `validate` (PASS/FAIL) and `sample` without --out (its
CSV) print elsewhere.  CSV tables write floats as format(x, ".17g") does,
encoded in numpy (lln._csv_rows); .17g round-trips but is not shortest (0.1 is
0.10000000000000001).  Each verb takes only the flags it reads.

Exit codes: 0 success, 2 validation failure or an identity whose
hypothesis does not hold, 1 runtime error (including malformed input
files).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, InfeasibleError, NoSolutionError
from . import discrete as dc
from . import gauge as gg
from . import lln
from . import qgauss as qg

log = logging.getLogger("dgeo")

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


def _floats(text: str) -> np.ndarray:
    try:
        return np.asarray([float(t) for t in text.split(",") if t.strip() != ""])
    except ValueError as exc:
        raise DomainError(f"could not parse float list {text!r}") from exc


def _matrix(text: str) -> list:
    """Rows of floats; the library checks that they form a square matrix."""
    return [_floats(row) for row in text.split(";")]


def _jsonable(obj):
    """obj as JSON values; a dataclass result is its fields in declaration order."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(vars(obj))
    return obj


def _emit(payload, args, csv=None, files=None, config=None) -> None:
    """Print a result and, with --out, bundle it: the one output rule above."""
    if getattr(args, "format", "json") == "csv":
        rows = (f"{k},{json.dumps(v) if isinstance(v, (list, dict)) else v}\n"
                for k, v in _jsonable(payload).items())
        text, name = csv or "key,value\n" + "".join(rows), "result.csv"
    else:
        text, name = json.dumps(_jsonable(payload), indent=2) + "\n", "result.json"
    print(text, end="")
    if getattr(args, "out", None):
        write_bundle(Path(args.out), files or {name: text},
                     config=_cmd_config(args) if config is None else config)


def _cmd_config(args) -> dict:
    skip = {"func"}
    return {k: _jsonable(v) for k, v in vars(args).items()
            if k not in skip and not callable(v)}


def write_bundle(outdir: Path, files: dict, config: dict) -> Path:
    """Write artifacts plus a manifest with SHA-256 per file."""
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, content in files.items():
        data = content.encode() if isinstance(content, str) else content
        path = outdir / name
        path.write_bytes(data)
        entries.append({"name": name, "sha256": hashlib.sha256(data).hexdigest(),
                        "bytes": len(data)})
    manifest = {"version": __version__, "config": config,
                "seed": config.get("seed"), "files": entries}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    log.info("wrote %d artifacts to %s", len(entries), outdir)
    return outdir / "manifest.json"


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise _MalformedInput(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


class _MalformedInput(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# gauge verbs
# ---------------------------------------------------------------------------


def _gauge_of(args) -> gg.GaugeTriple:
    try:
        desc = json.loads(args.gauge)
    except json.JSONDecodeError as exc:
        raise _MalformedInput(f"--gauge: invalid JSON at column {exc.colno}: {exc.msg}")
    return gg.gauge_from_json(desc)


def cmd_gauge_eval(args) -> int:
    g = _gauge_of(args)
    if args.fn == "exp":  # clips to 0 and inf by design
        print(repr(float(gg.exp_htau(g, args.x))))
        return EXIT_OK
    at = f"x={args.x}"
    with np.errstate(all="ignore"):  # refused below, as legendre_conjugate does
        if args.fn == "d":
            if args.y is None:
                raise DomainError("--fn d needs both --x and --y")
            val, at = float(gg.d_htau(g, args.x, args.y)), f"{at}, y={args.y}"
        else:
            g.I.require(args.x, "--x")  # every derived function lives on I
            val = float(getattr(gg.derived(g), args.fn)(args.x))
    if not math.isfinite(val):
        raise DomainError(f"{args.fn} at {at} leaves double range")
    print(repr(val))
    return EXIT_OK


def cmd_gauge_conjugate(args) -> int:
    val = gg.legendre_conjugate(_gauge_of(args), args.x)
    print(repr(float(val)))
    return EXIT_OK


def cmd_gauge_equiv_check(args) -> int:
    if args.n < 1:
        raise DomainError("--n must be a positive integer")
    g = _gauge_of(args)
    tr = gg.EquivalenceTransform(a1=args.a1, a2=args.a2, a3=args.a3, lam=args.lam)
    g2 = gg.apply_equivalence(g, tr)
    rng = np.random.default_rng(args.seed)
    ts = rng.uniform(0.2, 5.0, size=(args.n, 2))
    kernel = float(np.max(np.abs(gg.d_htau(g, ts[:, 0], ts[:, 1])
                                 - gg.d_htau(g2, ts[:, 0], ts[:, 1]))))
    grid = np.geomspace(0.3, 4.0, 64)
    d1, d2 = gg.derived(g), gg.derived(g2)
    payload = {
        "max_kernel_defect": kernel,
        "max_m_defect": float(np.max(np.abs(d1.m(grid) - d2.m(grid)))),
        "max_gamma_defect": float(np.max(np.abs(d1.gamma(grid) - d2.gamma(grid)))),
    }
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# discrete verbs
# ---------------------------------------------------------------------------


def _spec_of(args) -> dc.DiscreteFamilySpec:
    return dc.spec_from_json(_load_json_file(args.spec))


def cmd_discrete_normalize(args) -> int:
    psi, p = dc.normalize(_spec_of(args), _floats(args.theta))
    _emit({"psi": psi, "density": p}, args)
    return EXIT_OK


def cmd_discrete_divergence(args) -> int:
    spec = _spec_of(args)
    _, p = dc.normalize(spec, _floats(args.theta))
    _, p2 = dc.normalize(spec, _floats(args.theta2))
    _emit({"divergence": dc.divergence(spec, p, p2)}, args)
    return EXIT_OK


def cmd_discrete_geometry(args) -> int:
    spec = _spec_of(args)
    th = _floats(args.theta)
    _emit({
        "psi_gradient": dc.psi_gradient(spec, th),
        "psi_hessian": dc.psi_hessian(spec, th),
        "metric": dc.metric(spec, th),
        "christoffel_raw": dc.connection_raw(spec, th),
    }, args)
    return EXIT_OK


def cmd_discrete_hessian_check(args) -> int:
    rep = dc.hessian_check(_spec_of(args), _floats(args.theta))
    _emit(rep, args)
    return EXIT_OK if rep.status == "ok" else EXIT_VALIDATION


def cmd_discrete_canonical_check(args) -> int:
    defect = dc.canonical_divergence_check(_spec_of(args), _floats(args.theta),
                                           _floats(args.theta2))
    _emit({"defect": defect}, args)
    return EXIT_OK


def cmd_discrete_conformal_check(args) -> int:
    res = dc.conformal_check(_spec_of(args), _floats(args.theta), _floats(args.theta2))
    _emit(res, args)
    return EXIT_OK


def cmd_discrete_project(args) -> int:
    res = dc.pythagorean_project(_spec_of(args), _floats(args.rho), tol=args.tol)
    _emit(res, args)
    return EXIT_OK


def cmd_discrete_entropy_max(args) -> int:
    res = dc.entropy_max_check(_spec_of(args), _floats(args.rho))
    _emit({"entropy_source": res.entropy_source,
           "entropy_projected": res.entropy_projected,
           "maximized": res.maximized}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# qgauss verbs
# ---------------------------------------------------------------------------


def _qparams(args) -> qg.QGaussianParams:
    v = _floats(args.v) if args.v else None
    S = _matrix(args.S) if args.S else None
    return qg.QGaussianParams(args.q, args.d, v, S)


def _coord_names(k: int, d: int) -> list[str]:
    """CSV column names x_m_i of coordinate i of repetition m."""
    return [f"x_{m + 1}_{i + 1}" for m in range(k) for i in range(d)]


def _csv_blocks(header: list[str], rows: np.ndarray):
    """CSV of rows of floats as .17g, which round-trips but is not shortest: the header,
    then 256 rows at a time, as ASCII bytes (lln._csv_rows)."""
    yield memoryview((",".join(header) + "\n").encode())
    for lo in range(0, len(rows), 256):
        yield lln._csv_rows([], rows[lo:lo + 256])


def _encoded(blocks) -> bytearray:
    """The bytes of a text given in blocks of bytes, so it never exists whole as a str."""
    data = bytearray()
    for block in blocks:
        data += block
    return data


def cmd_qgauss_density(args) -> int:
    p = _qparams(args)
    _emit({"density": qg.density(p, _floats(args.x))}, args)
    return EXIT_OK


def cmd_qgauss_lambda(args) -> int:
    _emit({"lambda": qg.lambda_q(args.q, args.d, _matrix(args.S) if args.S else None)}, args)
    return EXIT_OK


def cmd_qgauss_marginal_check(args) -> int:
    p = _qparams(args)
    xs = None if args.grid is None else _floats(args.grid)
    res = qg.marginal_check(qg.repetition(p, args.k + args.kprime), qg.repetition(p, args.k),
                            xs=xs, epsabs=args.tol)
    names = _coord_names(args.k, p.d) if p.d > 1 else [f"x_{m + 1}" for m in range(args.k)]
    csv = _encoded(_csv_blocks(names + ["defect"], np.column_stack([res.points, res.defects])))
    _emit({"max_defect": res.max_defect, **vars(res)}, args, csv=csv.decode())
    return EXIT_OK


def cmd_qgauss_sample(args) -> int:
    p = _qparams(args)
    law = qg.repetition(p, args.k)
    draws = qg.sample_joint(law, args.n, seed=args.seed)
    blocks = _csv_blocks(_coord_names(args.k, p.d), draws.reshape(args.n, -1))
    if args.out:  # without --out the samples stream to stdout; sample has no --format
        _emit({"written": str(Path(args.out) / "samples.csv"), "n": args.n}, args,
              files={"samples.csv": _encoded(blocks)})
    else:
        sys.stdout.writelines(str(block, "ascii") for block in blocks)
    return EXIT_OK


def cmd_qgauss_mle(args) -> int:
    if args.data:
        try:
            with warnings.catch_warnings():  # an empty file: mle reports its 0 values
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                x = np.loadtxt(args.data, delimiter=",", skiprows=1 if args.header else 0,
                               ndmin=1)
        except ValueError as exc:  # a non-numeric field, or rows of unequal length
            raise _MalformedInput(f"{args.data}: {exc}") from exc
    elif args.x:
        x = _floats(args.x)
    else:
        raise DomainError("mle needs --data or --x")
    _emit(qg.mle(args.q, args.d, args.k, x, args.family), args)
    return EXIT_OK


def cmd_qgauss_moments(args) -> int:
    p = _qparams(args)
    law = qg.repetition(p, max(args.k, 2))
    mom = qg.coordinate_moments(law, args.i)
    ey4, ey22 = qg.fi_pair_moments(law, args.i)
    ez2, ez12 = qg.fij_pair_moments(law, args.i, args.i)
    _emit({**vars(mom), "pair": {"EY4": ey4, "EY22": ey22, "EZ2": ez2, "EZ12": ez12},
           "nu_dof": law.nu_dof}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lln verbs
# ---------------------------------------------------------------------------


def _sim_config(args) -> lln.SimConfig:
    given = {k: getattr(args, k) for k in _SIM_NAMES if getattr(args, k) is not None}
    if args.config:
        if given:
            flags = ", ".join("--" + k.replace("_", "-") for k in given)
            raise DomainError(f"--config would ignore {flags}")
        return lln.SimConfig.from_json(_load_json_file(args.config))
    d = given.setdefault("d", 1)
    given["v"] = tuple(_floats(given["v"])) if given.get("v") else (0.0,) * d
    if "eps_grid" in given:
        given["eps_grid"] = tuple(_floats(given["eps_grid"]))
    return lln.SimConfig(**{"q": 1.5, **given})  # SimConfig's defaults for the rest


def cmd_lln_run(args) -> int:
    cfg = _sim_config(args)
    report = lln.run_lln(cfg, workers=args.workers)
    table = lln.verify_bounds(cfg, report) if cfg.reps >= 100 else None
    summary = report.to_json()
    if table is not None:
        summary["bounds_all_pass"] = table.all_pass
    csv = report.averages_csv() if args.format == "csv" else None
    files = args.out and {"averages.csv": csv or _encoded(report.averages_csv_blocks()),
                          "summary.json": json.dumps(_jsonable(summary), indent=2) + "\n"}
    if files and table is not None:
        files["exceedance.csv"] = table.to_csv()
    _emit(summary, args, csv=csv, files=files, config=cfg.to_json())
    return EXIT_OK


def cmd_lln_bounds(args) -> int:
    cfg = _sim_config(args)
    _emit(lln.chebyshev_bounds(cfg, args.k, args.eps), args,
          config={**cfg.to_json(), "k": args.k, "eps": args.eps})
    return EXIT_OK


def cmd_lln_verify(args) -> int:
    cfg = _sim_config(args)
    report = lln.run_lln(cfg, workers=args.workers)
    table = lln.verify_bounds(cfg, report)
    csv = table.to_csv()
    _emit({"all_pass": table.all_pass, "rows": table.rows}, args, csv=csv,
          files={"exceedance.csv": csv}, config=cfg.to_json())
    return EXIT_OK if table.all_pass else EXIT_VALIDATION


def cmd_lln_summability(args) -> int:
    cfg = _sim_config(args)
    _emit(lln.borel_cantelli_summability(cfg, args.eps, k_terms=args.k_terms), args,
          config={**cfg.to_json(), "eps": args.eps, "k_terms": args.k_terms})
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def validate_spec(path: str) -> list[str]:
    """Diagnostics for a family-spec or simulation-config JSON file."""
    obj = _load_json_file(path)
    if not isinstance(obj, dict) or not {"weights", "T", "q"} & obj.keys():
        return ["unrecognized file: expected a family spec or a simulation config"]
    try:
        if "weights" in obj or "T" in obj:
            # the gauge constructor checks tau' > 0 and h'' > 0 on I
            dc.spec_from_json(obj)
        elif "v" in obj:
            lln.SimConfig.from_json(obj)
        else:
            qg.QGaussianParams(obj["q"], obj.get("d", 1))
    except DomainError as exc:
        return [str(exc)]
    except (TypeError, ValueError) as exc:  # only raw q-Gaussian parameters get here
        return [f"malformed q-Gaussian parameters: {exc}"]
    return []


def cmd_validate(args) -> int:
    problems = validate_spec(args.path)
    if problems:
        print("FAIL")
        for p in problems:
            print(f"  - {p}")
        return EXIT_VALIDATION
    print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# Every flag a verb may take.  A _VERBS row lists, in Namespace order, the
# flags its cmd_* function reads; a (name, keywords) entry overrides _FLAGS.
_FLOAT_LIST = dict(required=True, help="comma separated floats")
_FLAGS = {
    "--gauge": dict(required=True),
    "--x": dict(type=float, required=True),
    "--spec": dict(required=True, help="family spec JSON file"),
    "--theta": _FLOAT_LIST, "--theta2": _FLOAT_LIST, "--rho": _FLOAT_LIST,
    "--q": dict(type=float, required=True),
    "--d": dict(type=int, default=1),
    "--k": dict(type=int, required=True),
    "--v": dict(default=None),
    "--S": dict(default=None, help="rows separated by ';'"),
    "--eps": dict(type=float, required=True),
    "--out": dict(default=None, help="directory for artifact bundle"),
    "--seed": dict(type=int, default=0),
    "--workers": dict(type=int, default=1),
    "--tol": dict(type=float, default=1e-10),
    "--format": dict(choices=("json", "csv"), default="json"),
}
# the simulation flags that every lln verb turns into a SimConfig, --seed
# among them; they parse to None, so that a flag given beside --config shows
# even at its default value, and _sim_config passes on only those given
_SIM_NAMES = ("q", "d", "v", "variant", "k_max", "reps", "eps_grid", "seed")
_SIM = (("--config", dict(default=None, help="simulation config JSON file")),
        ("--q", dict(type=float)), ("--d", dict(type=int)), "--v",
        ("--variant", dict(choices=("identity", "trace_d"))), ("--k-max", dict(type=int)),
        ("--reps", dict(type=int)), ("--eps-grid", {}))
_SIM_SEED = ("--seed", dict(type=int))
_FMT = ("--out", "--format")
_VERBS = (
    ("gauge", "eval", cmd_gauge_eval,
     ("--gauge", ("--fn", dict(required=True, choices=("ell", "m", "gamma", "chi", "s",
                                                      "s_star", "exp", "d"))),
      "--x", ("--y", dict(type=float, default=None)))),
    ("gauge", "conjugate", cmd_gauge_conjugate, ("--gauge", "--x")),
    ("gauge", "equiv-check", cmd_gauge_equiv_check,
     ("--gauge", *((f"--a{i}", dict(type=float, default=0.0)) for i in (1, 2, 3)),
      ("--lam", dict(type=float, default=1.0)), ("--n", dict(type=int, default=20)),
      "--out", "--seed", "--format")),
    ("discrete", "normalize", cmd_discrete_normalize, ("--spec", "--theta", *_FMT)),
    ("discrete", "divergence", cmd_discrete_divergence, ("--spec", "--theta", "--theta2", *_FMT)),
    ("discrete", "geometry", cmd_discrete_geometry, ("--spec", "--theta", *_FMT)),
    ("discrete", "hessian-check", cmd_discrete_hessian_check, ("--spec", "--theta", *_FMT)),
    ("discrete", "canonical-check", cmd_discrete_canonical_check,
     ("--spec", "--theta", "--theta2", *_FMT)),
    ("discrete", "conformal-check", cmd_discrete_conformal_check,
     ("--spec", "--theta", "--theta2", *_FMT)),
    ("discrete", "project", cmd_discrete_project,
     ("--spec", "--rho", "--out", "--tol", "--format")),
    ("discrete", "entropy-max", cmd_discrete_entropy_max, ("--spec", "--rho", *_FMT)),
    ("qgauss", "density", cmd_qgauss_density,
     ("--q", "--d", "--v", "--S", ("--x", dict(required=True)), *_FMT)),
    ("qgauss", "lambda", cmd_qgauss_lambda, ("--q", "--d", "--S", *_FMT)),
    ("qgauss", "marginal-check", cmd_qgauss_marginal_check,
     ("--q", "--d", "--k", ("--kprime", dict(type=int, required=True)), "--v", "--S",
      ("--grid", dict(default=None)), "--out", "--tol", "--format")),
    ("qgauss", "sample", cmd_qgauss_sample,
     ("--q", "--d", "--k", ("--n", dict(type=int, required=True)), "--v", "--S",
      "--out", "--seed")),
    ("qgauss", "mle", cmd_qgauss_mle,
     ("--q", "--d", "--k", ("--data", dict(default=None, help="CSV file of shape (k, d) or flat")),
      ("--x", dict(default=None, help="inline comma separated data")),
      ("--header", dict(action="store_true")),
      ("--family", dict(choices=("identity_mean_only", "full"), default="identity_mean_only")),
      *_FMT)),
    ("qgauss", "moments", cmd_qgauss_moments,
     ("--q", "--d", ("--k", dict(type=int, default=2)), ("--i", dict(type=int, default=0)),
      "--v", "--S", *_FMT)),
    ("lln", "run", cmd_lln_run, (*_SIM, "--out", _SIM_SEED, "--workers", "--format")),
    ("lln", "bounds", cmd_lln_bounds, (*_SIM, "--k", "--eps", "--out", _SIM_SEED, "--format")),
    ("lln", "verify", cmd_lln_verify, (*_SIM, "--out", _SIM_SEED, "--workers", "--format")),
    ("lln", "summability", cmd_lln_summability,
     (*_SIM, "--eps", ("--k-terms", dict(type=int, default=100_000)), "--out", _SIM_SEED,
      "--format")),
    ("validate", None, cmd_validate, (("path", {}),)),
)


def _glue_negatives(argv: list) -> list:
    """argv with a value that starts with a minus sign and a digit or a dot, or with -inf,
    -infinity or -nan in any case, joined to the flag before it with "=": argparse reads
    "-0.1,0.3", "-1e-3" or "-inf" as an option, and no flag of dgeo looks like a number."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] \
                and re.match(r"(?i)-([\d.]|(inf|infinity|nan)(,|$))", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dgeo", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="verb", required=True)
    actions = {}
    for verb, action, func, flags in _VERBS:
        if action is None:
            p = sub.add_parser(verb)
        else:
            if verb not in actions:
                actions[verb] = sub.add_parser(verb).add_subparsers(dest="action", required=True)
            p = actions[verb].add_parser(action)
        for flag in flags:
            name, kwargs = flag if isinstance(flag, tuple) else (flag, _FLAGS[flag])
            p.add_argument(name, **kwargs)
        p.set_defaults(func=func)
    return top


def main(argv=None) -> int:
    level = os.environ.get("DGEO_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(_glue_negatives(sys.argv[1:] if argv is None else list(argv)))
    try:
        if (getattr(args, "seed", None) or 0) < 0:  # SeedSequence takes no negative seed
            raise DomainError("--seed must be a non-negative integer")
        return args.func(args)
    except _MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DomainError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleError, NoSolutionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
