"""Configuration-driven command line: selftest, solve, check-domain.

The config file is flat ``key = value`` text (``#`` comments allowed);
every key can also be supplied or overridden by a flag.  Reports are CSV
or JSON tables of the homotopy path; solution dumps are little-endian
binary arrays next to a JSON header.  See the README for the schema.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from nconvex import selftest
from nconvex.barriers import barrier_section, recipe_params
from nconvex.discretize import (
    DiscreteField,
    Grid,
    SampledProblem,
    manufactured_problem,
    sample_problem,
)
from nconvex.geometry import (
    DomainSpec,
    check_gamma,
    mean_curvature_range,
    pinching_check,
)
from nconvex.solver import ContinuationFailure, SolverConfig, continuation

__all__ = ["main", "named_case", "parse_config", "config_digest",
           "write_solution_dump", "load_solution_dump"]

# name -> (semi-axes of the default domain, None for the unit ball in any n;
# amplitude a of the exact solution |x|^2/2 + a exp(x_1))
NAMED_CASES = {
    "ball-constant": (None, 0.0),
    "ball-manufactured-exp": (None, 0.05),
    "ellipsoid-near-sphere": ((1.0, 1.0, 1.05), 0.0),
}


# -- problem construction -----------------------------------------------------


def named_case(name: str, n: int = 3, domain: DomainSpec | None = None):
    """Return (domain, problem, exact_solution) for a built-in case.

    A config may override the domain: the data are rebuilt against it (the
    boundary datum uses the actual domain's normal field), so the exact
    solutions stay exact.  Without one, a ball case is the unit ball in
    dimension n; ellipsoid-near-sphere's default domain is three-dimensional.
    """
    if name not in NAMED_CASES:
        raise ValueError(f"unknown case {name!r}; available: {', '.join(NAMED_CASES)}")
    axes, amplitude = NAMED_CASES[name]
    if domain is None:
        if axes is None:
            domain = DomainSpec.ball(1.0, n=n)
        elif n != len(axes):
            raise ValueError(f"{name} is a three-dimensional case; n = {n} needs a domain")
        else:
            domain = DomainSpec.ellipsoid(axes)
    problem, exact = manufactured_problem(domain, amplitude, name=name)
    return domain, problem, exact


def _read_raw(path, dtype="<f8") -> np.ndarray:
    """Every 8-byte value of the raw file ``path``.

    ``np.fromfile`` drops a trailing partial value without a word, so a
    byte size that is not a multiple of 8 raises a ValueError naming the file.
    """
    size = Path(path).stat().st_size
    if size % 8:
        raise ValueError(f"{path} holds {size} bytes, not a whole number of 8-byte values")
    return np.fromfile(path, dtype=dtype)


def _array_problem(grid, f_path, phi_path):
    """Problem data from raw little-endian float64 files matching the grid."""
    f_vals = _read_raw(f_path)
    phi_vals = _read_raw(phi_path)
    if f_vals.size != grid.n_active:
        raise ValueError(
            f"f array has {f_vals.size} values, grid has {grid.n_active} active points"
        )
    if phi_vals.size != grid.n_colloc:
        raise ValueError(
            f"phi array has {phi_vals.size} values, grid has {grid.n_colloc} "
            "collocation points"
        )
    return SampledProblem(f_active=f_vals, phi_colloc=phi_vals, spec=None)


# -- config file --------------------------------------------------------------

DEFAULTS = {
    "case": "ball-constant",
    "n": 3,
    "resolution": 17,
    **asdict(SolverConfig()),
    "report": "csv",
    "verify_barriers": False,
    "barrier.gamma": 0.5,
    "output": "out",
}

# The keys without a default and their types; a key with one takes its default's type.
_UNDEFAULTED_TYPES = {"domain.radius": float, "domain.center": tuple, "domain.semi_axes": tuple,
                      "f.file": str, "phi.file": str, "force": bool}
_KNOWN_KEYS = set(DEFAULTS) | set(_UNDEFAULTED_TYPES)
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")
REPORT_FORMATS = ("csv", "json")


def parse_config(path) -> dict:
    """Flat ``key = value`` file into a typed dict over the defaults.

    Raises ValueError naming ``path:lineno`` for a malformed line, a key
    the command line does not read or one set twice, or a wrong-typed value.
    """
    cfg = dict(DEFAULTS)
    set_on = {}  # key -> the line that set it
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ValueError(
                f"{path}:{lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(_KNOWN_KEYS))}"
            )
        if key in set_on:
            raise ValueError(f"{path}:{lineno}: repeated key {key!r}, first set at "
                             f"{path}:{set_on[key]}")
        set_on[key] = lineno
        try:
            cfg[key] = _coerce(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return cfg


def _coerce(key, value):
    kind = _UNDEFAULTED_TYPES.get(key) or type(DEFAULTS[key])
    if kind is bool:
        word = value.lower()
        if word in _TRUE_WORDS or word in _FALSE_WORDS:
            return word in _TRUE_WORDS
        raise ValueError(f"expected {'/'.join(_TRUE_WORDS)} or {'/'.join(_FALSE_WORDS)}, "
                         f"got {value!r}")
    if kind is tuple:
        return tuple(float(v) for v in value.split(","))
    if key == "report" and value not in REPORT_FORMATS:
        raise ValueError(f"expected {' or '.join(REPORT_FORMATS)}, got {value!r}")
    if key == "barrier.gamma":
        return check_gamma(float(value))
    return kind(value)


def config_digest(cfg: dict) -> str:
    """Hash of what defines the solve, not of how the config spells it.

    The domain enters as the resolved ``DomainSpec`` (center and
    semi-axes), not as the ``domain.*`` keys, and ``force`` is left out: it
    lets a refused domain through but changes no number.  Where the results
    are written (``output``) and in which format (``report``) are left out
    too, so two runs of the same solve share a digest.  A data file
    (``f.file``, ``phi.file``) enters by the SHA-256 of its bytes, not by its
    path: new data changes the digest, moved data keeps it.
    """
    domain = _domain_from_config(cfg)
    solve = {k: cfg[k] for k in sorted(cfg)
             if k not in ("output", "report", "force") and not k.startswith("domain.")}
    solve["domain"] = {"center": domain.center, "semi_axes": domain.semi_axes}
    for key in ("f.file", "phi.file"):
        if solve.get(key):
            solve[key] = hashlib.sha256(Path(solve[key]).read_bytes()).hexdigest()
    canon = json.dumps(solve, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _domain_from_config(cfg) -> DomainSpec:
    """The config's domain, its shape read from the size key.

    ``domain.radius`` gives a ball in n dimensions and ``domain.semi_axes``
    an ellipsoid (equal axes make a ball); without either, the named case's.
    """
    n = int(cfg["n"])
    if "domain.radius" in cfg and "domain.semi_axes" in cfg:
        raise ValueError("give domain.radius or domain.semi_axes, not both")
    center = cfg.get("domain.center")
    if "domain.radius" in cfg:
        return DomainSpec.ball(float(cfg["domain.radius"]), center=center, n=n)
    if "domain.semi_axes" not in cfg:
        if center is not None:
            raise ValueError("domain.center needs a size key: domain.radius for a ball "
                             "or domain.semi_axes for an ellipsoid")
        return named_case(cfg["case"], n=n)[0]
    if len(cfg["domain.semi_axes"]) != n:
        raise ValueError(f"domain.semi_axes has {len(cfg['domain.semi_axes'])} entries "
                         f"but n = {n}")
    return DomainSpec.ellipsoid(cfg["domain.semi_axes"], center=center)


# -- dumps and reports ---------------------------------------------------------


def write_solution_dump(directory, grid: Grid, field: DiscreteField, t: float):
    """Header JSON plus flat little-endian arrays; lossless for reload."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    header = {
        "format": "nconvex-dump-1",
        "n": grid.n,
        "resolution": grid.resolution,
        "h": grid.h,
        "domain": {
            "kind": grid.domain.kind,
            "center": list(grid.domain.center),
            "semi_axes": list(grid.domain.semi_axes),
        },
        "counts": {"active": grid.n_active, "colloc": grid.n_colloc},
        "t": t,
        "byte_order": "little",
    }
    (out / "header.json").write_text(json.dumps(header, indent=2, sort_keys=True))
    field.values.astype("<f8").tofile(out / "values.bin")
    field.trace.astype("<f8").tofile(out / "trace.bin")
    grid.active_idx.astype("<i8").tofile(out / "active_idx.bin")
    grid.colloc_y.astype("<f8").tofile(out / "colloc_y.bin")
    return out


def load_solution_dump(directory):
    """Rebuild (grid, field, t) from a dump.

    The header must give every key ``write_solution_dump`` writes,
    little-endian data and a t in [0, 1], and its domain kind, n, h and
    counts must match the rebuilt grid.  Each array file must hold as many
    whole 8-byte values as the rebuilt grid needs, and the grid arrays of
    the dump (``active_idx.bin``, ``colloc_y.bin``) must match it.  A
    missing key or a mismatch raises a ValueError naming the file.
    """
    src = Path(directory)
    path = src / "header.json"
    header = json.loads(path.read_text())
    if header.get("format") != "nconvex-dump-1":
        raise ValueError(f"unrecognized dump format in {src}")
    if header.get("byte_order") != "little":
        raise ValueError(f"{path} gives byte order {header.get('byte_order')!r}; "
                         "dumps are little-endian")
    for key in ("t", "n", "resolution", "h", "domain.kind", "domain.center",
                "domain.semi_axes", "counts.active", "counts.colloc"):
        node = header
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise ValueError(f"{path} has no key {key!r}")
            node = node[part]
    t = float(header["t"])
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"{path} gives t = {t}, outside [0, 1]")
    dom = header["domain"]
    if dom["kind"] not in ("ball", "ellipsoid"):
        raise ValueError(f"{path} names unknown domain kind {dom['kind']!r}")
    domain = DomainSpec.ellipsoid(dom["semi_axes"], center=dom["center"])
    if dom["kind"] != domain.kind:
        raise ValueError(f"{path} names domain kind {dom['kind']!r}, but its semi-axes "
                         f"make a {domain.kind}")
    if header["n"] != domain.n:
        raise ValueError(f"{path} gives n = {header['n']} but {domain.n} semi-axes")
    grid = Grid(domain, header["resolution"])
    if header["h"] != grid.h:
        raise ValueError(f"{path} gives h = {header['h']}, the rebuilt grid {grid.h}")
    if grid.n_active != header["counts"]["active"] or grid.n_colloc != header["counts"]["colloc"]:
        raise ValueError(f"{path}: dump counts do not match the rebuilt grid")
    arrays = {}
    for name, dtype, count in (("active_idx.bin", "<i8", grid.active_idx.size),
                               ("colloc_y.bin", "<f8", grid.colloc_y.size),
                               ("values.bin", "<f8", grid.n_active),
                               ("trace.bin", "<f8", grid.n_colloc)):
        arrays[name] = _read_raw(src / name, dtype)
        if arrays[name].size != count:
            raise ValueError(f"{src / name} holds {arrays[name].size} values, "
                             f"the rebuilt grid needs {count}")
    for name, want, tol in (("active_idx.bin", grid.active_idx, 0.0),
                            ("colloc_y.bin", grid.colloc_y, 1e-12 * max(domain.semi_axes))):
        if not np.allclose(arrays[name], want.ravel(), rtol=0.0, atol=tol):
            raise ValueError(f"{src / name} does not match the rebuilt grid")
    field = DiscreteField(values=arrays["values.bin"], trace=arrays["trace.bin"])
    field.check(grid)
    return grid, field, t


def _write_report(report, cfg, out_dir: Path):
    fmt = cfg["report"]  # one of REPORT_FORMATS: parse_config and the flag check it
    path = out_dir / f"path_report.{fmt}"
    path.write_text(report.to_csv() if fmt == "csv" else report.to_json())
    return path


# -- commands ------------------------------------------------------------------


def cmd_selftest(args) -> int:
    results = selftest.run_all(seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} suites failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} suites passed (seed {args.seed})")
    return 0


def _load_run(args):
    cfg = dict(DEFAULTS) if args.config is None else parse_config(args.config)
    for key in ("resolution", "homotopy_steps"):
        override = getattr(args, key, None)
        if override is not None:
            cfg[key] = override
    if getattr(args, "report", None):
        cfg["report"] = args.report
    if getattr(args, "verify_barriers", False):
        cfg["verify_barriers"] = True
    if getattr(args, "force", False):
        cfg["force"] = True
    if getattr(args, "output", None):
        cfg["output"] = args.output
    return cfg


def cmd_solve(args) -> int:
    cfg = _load_run(args)
    config = SolverConfig(**{f.name: cfg[f.name] for f in fields(SolverConfig)})
    domain = _domain_from_config(cfg)
    if domain.n < 3:
        raise ValueError(f"PDE runs need n >= 3, got n = {domain.n}")
    if bool(cfg.get("f.file")) != bool(cfg.get("phi.file")):
        raise ValueError("custom data needs both f.file and phi.file")
    # The gate runs once, here, ahead of the grid build: a domain it refuses
    # may not even yield a grid (the (1, 1, 3) ellipsoid at 9^3 does not).
    gate = pinching_check(domain)
    if not (gate.passes or cfg.get("force", False)):
        print(
            "refusing to solve: " + gate.summary()
            + " (curvature spread exceeds H/(2(n-1)(n-2)); use --force to override)",
            file=sys.stderr,
        )
        return 1
    grid = Grid(domain, int(cfg["resolution"]))
    exact = None
    if cfg.get("f.file"):
        problem = _array_problem(grid, cfg["f.file"], cfg["phi.file"])
    else:
        _, spec, exact = named_case(cfg["case"], n=int(cfg["n"]), domain=domain)
        problem = sample_problem(spec, grid)
    digest = config_digest(cfg)  # after the data files are known to be readable
    out_dir = Path(cfg["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        state, report = continuation(problem, grid, config, force=True)  # gate ran above
    except ContinuationFailure as exc:
        print(f"continuation failed: {exc}", file=sys.stderr)
        if exc.state is not None:
            dump = write_solution_dump(out_dir / "last_good", grid, exc.state.field,
                                       exc.state.t)
            exc.report.config_digest = digest
            _write_report(exc.report, cfg, out_dir)
            print(f"last good state (t={exc.state.t:.6g}) dumped to {dump}",
                  file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"refusing to solve: {exc}", file=sys.stderr)
        return 1
    report.config_digest = digest
    if exact is not None:
        ref = np.asarray(exact(grid.active_pts), dtype=float)
        report.exact_error = float(np.max(np.abs(state.field.values - ref)))
    if cfg.get("verify_barriers", False):
        if problem.spec is None:
            print("barrier verification needs a named case (callable data); skipped",
                  file=sys.stderr)
        else:
            try:
                params = recipe_params(domain, state, grid, problem,
                                       gamma=float(cfg["barrier.gamma"]))
                report.barriers = barrier_section(domain, state, grid, problem, params)
            except ValueError as exc:
                # diagnostics never abort a finished solve
                print(f"barrier verification skipped: {exc}", file=sys.stderr)
                report.barriers = {"error": str(exc)}
    dump_dir = write_solution_dump(out_dir / "solution", grid, state.field, state.t)
    report_path = _write_report(report, cfg, out_dir)
    for row in report.rows:
        print(
            f"t={row['t']:.4f}  residual={row['residual']:.3e}  "
            f"margin={row['margin']:.4f}  sup_d2u={row['sup_d2u']:.4f}"
        )
    print(f"reached t={state.t}; solution dump: {dump_dir}; report: {report_path}")
    if report.exact_error is not None:
        print(f"sup error vs reference solution: {report.exact_error:.6e}")
    print(f"config digest: {digest}")
    return 0


def cmd_check_domain(args) -> int:
    cfg = _load_run(args)
    domain = _domain_from_config(cfg)
    gate = pinching_check(domain)
    print(gate.summary())
    if domain.n == 3:
        print(f"n=3 corollary form (kmax < 5/3 kmin): "
              f"{'PASS' if gate.corollary_passes else 'FAIL'}; "
              f"agrees pointwise with the general form: {gate.corollary_agrees}")
    print(
        f"strip parameters: mu0={domain.mu0:.6g}, kappa_min={domain.kappa_min_global:.6g}, "
        f"kappa_max={domain.kappa_max_global:.6g}"
    )
    h_min, h_max = mean_curvature_range(domain)
    if h_min == h_max:
        print(f"mean curvature H = {h_min:.6g} (constant on a ball)")
    else:
        print(f"mean curvature H in [{h_min:.6g}, {h_max:.6g}]")
    if not gate.passes:
        print(
            f"worst sampled boundary point: {np.round(gate.worst_point, 6).tolist()}"
        )
        print("domain would be refused by `solve` without --force")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nconvex",
        description="Determinant-of-Hessian-lift Neumann solver and verifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_self = sub.add_parser("selftest", help="run the seeded property battery")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    p_solve = sub.add_parser("solve", help="run a continuation solve")
    p_solve.add_argument("--config", type=str, default=None)
    p_solve.add_argument("--resolution", type=int, default=None)
    p_solve.add_argument("--homotopy-steps", type=int, default=None,
                         dest="homotopy_steps",
                         help="the first homotopy step is 1/N (default 10); later "
                              "steps grow or halve with the Newton solves")
    p_solve.add_argument("--report", choices=REPORT_FORMATS, default=None)
    p_solve.add_argument("--verify-barriers", action="store_true",
                         dest="verify_barriers")
    p_solve.add_argument("--force", action="store_true")
    p_solve.add_argument("--output", type=str, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_dom = sub.add_parser("check-domain", help="report the curvature gate")
    p_dom.add_argument("--config", type=str, default=None)
    p_dom.set_defaults(func=cmd_check_domain)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad configuration, domain, grid or problem data, or a missing or
        # unreadable file: one line, exit 2
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
