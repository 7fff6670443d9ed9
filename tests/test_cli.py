"""Command-line surface: selftest, solve, check-domain, dumps, digests."""

import json
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

import nconvex.cli
import nconvex.geometry
import nconvex.solver
from nconvex import selftest, woperator
from nconvex.cli import (
    DEFAULTS,
    config_digest,
    load_solution_dump,
    main,
    named_case,
    parse_config,
    write_solution_dump,
)
from nconvex.discretize import Grid, interior_residual, sample_problem
from nconvex.geometry import DomainSpec, pinching_check
from nconvex.solver import SolverConfig, quadratic_seed


def flip_off_diagonal_signs(monkeypatch):
    """Flip the sign rule of every off-diagonal lift entry in ``woperator``."""
    original = woperator._descriptors

    def flipped(n, m):
        des = list(original(n, m))
        for idx, (a, b, i, j, s) in enumerate(des):
            if a != b:
                des[idx] = (a, b, i, j, -s)
        return tuple(des)

    monkeypatch.setattr(woperator, "_descriptors", flipped)


class TestSelftest:
    def test_default_seed_passes(self):
        results = selftest.run_all(seed=0)
        assert all(r.passed for r in results)

    def test_cli_exit_zero(self, capsys):
        assert main(["selftest", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_sign_flip_mutation_caught(self, monkeypatch):
        # the explicit 3d conformance fixture must fail
        flip_off_diagonal_signs(monkeypatch)
        results = selftest.run_all(seed=0)
        conformance = [r for r in results if "conformance" in r.name][0]
        assert not conformance.passed

    def test_sign_flip_fails_the_concavity_suite_without_a_complex_root(self, monkeypatch):
        # the flipped lift has non-positive determinants; the probe counts
        # them before any root is taken, so no complex gap is cut to its real part
        flip_off_diagonal_signs(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            results = selftest.run_all(seed=0)
        concavity = [r for r in results if "concavity" in r.name][0]
        assert not concavity.passed
        assert "3 lift determinants of 2082 are not positive" in concavity.detail

    def test_cli_exit_one_counts_the_failed_suites(self, monkeypatch, capsys):
        flip_off_diagonal_signs(monkeypatch)
        results = selftest.run_all(seed=0)
        failed = sum(not r.passed for r in results)
        assert failed >= 1
        assert main(["selftest"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"{failed} of {len(results)} suites failed\n"
        assert captured.out.count("[FAIL]") == failed


class TestConfig:
    def test_parse_and_digest_stable(self, tmp_path):
        cfg_text = """
        # unit ball fixture
        case = ball-constant
        resolution = 9
        report = json
        """
        path = tmp_path / "run.cfg"
        path.write_text(cfg_text)
        cfg_a = parse_config(path)
        cfg_b = parse_config(path)
        assert cfg_a == cfg_b
        assert cfg_a["resolution"] == 9
        assert config_digest(cfg_a) == config_digest(cfg_b)

    def test_digest_changes_with_content(self, tmp_path):
        a = tmp_path / "a.cfg"
        b = tmp_path / "b.cfg"
        a.write_text("resolution = 9\n")
        b.write_text("resolution = 11\n")
        assert config_digest(parse_config(a)) != config_digest(parse_config(b))

    def test_malformed_line_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("resolution 9\n")
        with pytest.raises(ValueError):
            parse_config(bad)

    def test_unknown_key_rejected_with_location(self, tmp_path):
        typo = tmp_path / "typo.cfg"
        typo.write_text("case = ball-constant\nresolutoin = 33\n")
        with pytest.raises(ValueError, match=r"typo\.cfg:2: unknown key 'resolutoin'"):
            parse_config(typo)

    @pytest.mark.parametrize("word, want", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("false", False), ("NO", False), ("Off", False),
    ])
    def test_boolean_spellings(self, tmp_path, word, want):
        path = tmp_path / "run.cfg"
        path.write_text(f"verify_barriers = {word}\nforce = {word}\n")
        cfg = parse_config(path)
        assert cfg["verify_barriers"] is want and cfg["force"] is want

    def test_repeated_key_rejected_with_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("resolution = 17\ncase = ball-constant\nresolution = 33\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:3: repeated key 'resolution', "
                                             r"first set at .*twice\.cfg:1$"):
            parse_config(path)

    @pytest.mark.parametrize("line, key, detail", [
        ("verify_barriers = ture", "verify_barriers", "expected 1/true/yes/on or 0/false/no/off"),
        ("force = 2", "force", "got '2'"),
        ("resolution = 33.5", "resolution", "invalid literal for int"),
        ("newton_tol = half", "newton_tol", "could not convert"),
    ])
    def test_bad_value_rejected_with_location(self, tmp_path, line, key, detail):
        path = tmp_path / "bad.cfg"
        path.write_text(f"case = ball-constant\n{line}\n")
        with pytest.raises(ValueError, match=rf"bad\.cfg:2: bad value for '{key}': ") as err:
            parse_config(path)
        assert detail in str(err.value)


# The keys without a default, each with a value of its type.
UNDEFAULTED = {
    "domain.radius": "1.0",
    "domain.center": "0,0,0",
    "domain.semi_axes": "1,1,1.05",
    "f.file": "f.bin",
    "phi.file": "phi.bin",
    "force": "yes",
}


class TestConfigSurface:
    """The config keys are the defaults plus the six keys without one."""

    def test_known_keys_are_the_defaults_and_the_undefaulted(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("no_such_key = 1\n")
        with pytest.raises(ValueError, match="unknown key") as err:
            parse_config(path)
        listed = str(err.value).split("known keys: ", 1)[1].split(", ")
        assert sorted(listed) == sorted(set(DEFAULTS) | set(UNDEFAULTED))
        assert not set(DEFAULTS) & set(UNDEFAULTED) and len(UNDEFAULTED) == 6

    def test_every_key_parses_to_its_type(self, tmp_path):
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {value}\n"
                                for key, value in {**DEFAULTS, **UNDEFAULTED}.items()))
        cfg = parse_config(path)
        for key, value in DEFAULTS.items():
            assert cfg[key] == value and type(cfg[key]) is type(value)
        assert cfg["domain.center"] == (0.0, 0.0, 0.0) and cfg["force"] is True

    def test_every_solver_field_is_a_default_key(self):
        assert {f.name: DEFAULTS[f.name] for f in fields(SolverConfig)} == asdict(SolverConfig())

    @pytest.mark.parametrize("key", ["damping", "min_step", "max_newton_iters"])
    def test_removed_solver_setting_is_an_unknown_key(self, tmp_path, capsys, key):
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(f"resolution = 9\n{key} = 1\noutput = {out}\n")
        with pytest.raises(ValueError, match=rf"run\.cfg:2: unknown key '{key}'"):
            parse_config(path)
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and f"unknown key '{key}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    @pytest.mark.parametrize("key", ["barrier.sigma", "barrier.epsilon"])
    def test_fixed_barrier_constant_is_an_unknown_key(self, tmp_path, capsys, command, key):
        # sigma and epsilon are barriers.SIGMA and barriers.EPSILON
        out = tmp_path / "out"
        path = tmp_path / "run.cfg"
        path.write_text(f"resolution = 9\n{key} = 0.5\noutput = {out}\n")
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"run.cfg:2: unknown key '{key}'" in err
        assert not out.exists()


class TestNamedCases:
    def test_all_cases_construct(self):
        for name, n in (("ball-constant", 3), ("ball-manufactured-exp", 3),
                        ("ellipsoid-near-sphere", 3), ("ball-constant", 4),
                        ("ball-manufactured-exp", 4)):
            domain, problem, exact = named_case(name, n=n)
            assert problem.name == name
            assert domain.n == problem.n == n
        # the ellipsoid case's default domain is three-dimensional
        with pytest.raises(ValueError, match="three-dimensional"):
            named_case("ellipsoid-near-sphere", n=4)
        domain = DomainSpec.ellipsoid((1.0, 1.0, 1.0, 1.05))
        assert named_case("ellipsoid-near-sphere", n=4, domain=domain)[1].n == 4

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            named_case("no-such-case")


class TestSolveCommand:
    def test_ball_constant_roundtrip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\nresolution = 9\nreport = json\n"
            f"output = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "reached t=1.0" in out
        report = json.loads((tmp_path / "out" / "path_report.json").read_text())
        # the exact path takes no Newton step, so dt quadruples from 0.1
        assert [row["t"] for row in report["rows"]] == pytest.approx([0.0, 0.1, 0.5, 1.0])
        assert report["rows"][-1]["t"] == 1.0
        assert report["krylov_iters"] == [] and report["rejected_steps"] == []
        assert "config_digest" in report

        # reloaded dump reproduces the residual norm bit-exactly
        grid, field, t = load_solution_dump(tmp_path / "out" / "solution")
        _, problem, _ = named_case("ball-constant")
        sampled = sample_problem(problem, grid)
        r1 = interior_residual(field, grid, sampled, t)
        r2 = interior_residual(field, grid, sampled, t)
        assert np.array_equal(r1, r2)
        assert float(np.max(np.abs(r1))) == report["rows"][-1]["residual"]

    def test_identical_configs_identical_reports(self, tmp_path):
        for sub in ("one", "two"):
            cfg = tmp_path / f"{sub}.cfg"
            cfg.write_text(
                "case = ball-constant\nresolution = 9\nreport = json\n"
                f"output = {tmp_path / sub}\n"
            )
            assert main(["solve", "--config", str(cfg)]) == 0
        a = (tmp_path / "one" / "path_report.json").read_text()
        b = (tmp_path / "two" / "path_report.json").read_text()
        # the output directory is not part of the solve, so not of its digest either
        assert "config_digest" in json.loads(a)
        assert a == b

    def test_digest_ignores_output_and_report_format(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("resolution = 9\n")
        cfg = parse_config(path)
        moved = {**cfg, "output": str(tmp_path / "elsewhere"), "report": "json"}
        assert config_digest(moved) == config_digest(cfg)

    def digest_of(self, tmp_path, text):
        path = tmp_path / f"digest-{len(list(tmp_path.glob('digest-*')))}.cfg"
        path.write_text(text)
        return config_digest(parse_config(path))

    def test_digest_hashes_the_solve_not_its_spelling(self, tmp_path, capsys):
        # the default unit ball spelled three ways, and force = no, are one solve
        plain = self.digest_of(tmp_path, "resolution = 9\n")
        assert self.digest_of(tmp_path, "resolution = 9\nforce = no\n") == plain
        assert self.digest_of(tmp_path, "resolution = 9\ndomain.radius = 1.0\n") == plain
        assert self.digest_of(tmp_path, "resolution = 9\ndomain.semi_axes = 1, 1, 1\n") == plain
        # a radius gives a ball in n dimensions, the ball that equal semi-axes give
        assert (self.digest_of(tmp_path, "n = 4\ndomain.radius = 2\n")
                == self.digest_of(tmp_path, "n = 4\ndomain.semi_axes = 2, 2, 2, 2\n"))
        # --force on a domain the gate passes changes no number, nor the digest
        reports = []
        for flags in ([], ["--force"]):
            out = tmp_path / f"out-{len(flags)}"
            path = tmp_path / f"force-{len(flags)}.cfg"
            path.write_text(f"resolution = 9\nreport = json\noutput = {out}\n")
            assert main(["solve", "--config", str(path), *flags]) == 0
            reports.append(json.loads((out / "path_report.json").read_text()))
        assert reports[0]["config_digest"] == reports[1]["config_digest"] == plain
        assert reports[0]["rows"] == reports[1]["rows"]

    @pytest.mark.parametrize("change", [
        "resolution = 11\n",
        "resolution = 9\nnewton_tol = 1e-9\n",
        "resolution = 9\nhomotopy_steps = 5\n",
        "resolution = 9\ndomain.radius = 0.9\n",
        "resolution = 9\ndomain.radius = 1.0\ndomain.center = 0.1, 0, 0\n",
        "resolution = 9\ncase = ball-manufactured-exp\n",
    ], ids=["resolution", "newton_tol", "homotopy_steps", "radius", "center", "case"])
    def test_digest_follows_what_changes_the_solve(self, tmp_path, change):
        assert self.digest_of(tmp_path, change) != self.digest_of(tmp_path, "resolution = 9\n")

    def solve_file_data(self, tmp_path, data_dir, f_value):
        """``solve`` at the 9^3 ball on f = f_value and phi = colloc_quad from data_dir."""
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        data_dir.mkdir(exist_ok=True)
        np.full(grid.n_active, f_value).astype("<f8").tofile(data_dir / "f.bin")
        grid.colloc_quad.astype("<f8").tofile(data_dir / "phi.bin")
        out = tmp_path / f"out-{len(list(tmp_path.glob('out-*')))}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {data_dir / 'f.bin'}\n"
            f"phi.file = {data_dir / 'phi.bin'}\nreport = json\noutput = {out}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        return json.loads((out / "path_report.json").read_text())

    def test_digest_follows_the_contents_of_data_files(self, tmp_path, capsys):
        # the same f.bin path holding f = 8 and then f = 8.5: different solves
        first = self.solve_file_data(tmp_path, tmp_path / "data", 8.0)
        second = self.solve_file_data(tmp_path, tmp_path / "data", 8.5)
        assert first["rows"][-1]["sup_u"] != second["rows"][-1]["sup_u"]
        assert first["config_digest"] != second["config_digest"]

    def test_digest_ignores_where_data_files_live(self, tmp_path, capsys):
        here = self.solve_file_data(tmp_path, tmp_path / "here", 8.5)
        there = self.solve_file_data(tmp_path, tmp_path / "there", 8.5)
        assert here["config_digest"] == there["config_digest"]
        assert here["rows"] == there["rows"]

    def test_flags_override_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\nresolution = 17\nhomotopy_steps = 10\nreport = csv\n"
            f"output = {tmp_path / 'A'}\n"
        )
        assert main(["solve", "--config", str(cfg), "--resolution", "9",
                     "--homotopy-steps", "2", "--report", "json", "--verify-barriers",
                     "--output", str(tmp_path / "B")]) == 0
        assert not (tmp_path / "A").exists()
        report = json.loads((tmp_path / "B" / "path_report.json").read_text())
        assert [row["t"] for row in report["rows"]] == [0.0, 0.5, 1.0]
        assert "barriers" in report
        grid, _, _ = load_solution_dump(tmp_path / "B" / "solution")
        assert grid.resolution == 9

    def test_barrier_failure_is_reported_not_fatal(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\nresolution = 9\nreport = json\n"
            f"verify_barriers = true\noutput = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        error = ("boundary strip of width 0.06923 holds no active grid point (h = 0.25); "
                 "refine the grid or widen the strip")
        assert capsys.readouterr().err == f"barrier verification skipped: {error}\n"
        report = json.loads((tmp_path / "out" / "path_report.json").read_text())
        assert report["barriers"] == {"error": error}
        assert report["rows"][-1]["t"] == 1.0

    def test_barriers_skipped_for_file_data(self, tmp_path, capsys):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        np.full(grid.n_active, 8.0).astype("<f8").tofile(tmp_path / "f.bin")
        grid.colloc_quad.astype("<f8").tofile(tmp_path / "phi.bin")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {tmp_path / 'f.bin'}\n"
            f"phi.file = {tmp_path / 'phi.bin'}\nreport = json\nverify_barriers = true\n"
            f"output = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        assert capsys.readouterr().err == (
            "barrier verification needs a named case (callable data); skipped\n")
        report = json.loads((tmp_path / "out" / "path_report.json").read_text())
        assert "barriers" not in report and report["rows"][-1]["t"] == 1.0

    def test_manufactured_error_ratio_between_resolutions(self, tmp_path):
        errors = {}
        for res in (9, 17):
            out = tmp_path / f"m{res}"
            cfg = tmp_path / f"m{res}.cfg"
            cfg.write_text(
                "case = ball-manufactured-exp\nreport = json\n"
                f"resolution = {res}\noutput = {out}\n"
            )
            assert main(["solve", "--config", str(cfg)]) == 0
            report = json.loads((out / "path_report.json").read_text())
            errors[res] = report["exact_error"]
        ratio = errors[9] / errors[17]
        assert 2.0 < ratio < 6.0

    def test_barriers_attached(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\nresolution = 25\nreport = json\n"
            f"verify_barriers = true\noutput = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "path_report.json").read_text())
        assert "barriers" in report
        assert report["barriers"]["sub"]["strip_extreme"] >= -1e-8
        assert report["barriers"]["super"]["strip_extreme"] <= 1e-8
        assert report["barriers"]["h_inequality"]["violations"] == 0

    def test_eccentric_domain_refused_without_force(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\nn = 3\n"
            "domain.semi_axes = 1.0,1.0,3.0\nresolution = 9\n"
            f"output = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "refusing to solve" in err

    def test_pinching_gate_runs_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(domain, *args, **kwargs):
            calls.append(domain)
            return pinching_check(domain, *args, **kwargs)

        for module in (nconvex.cli, nconvex.solver, nconvex.geometry):
            monkeypatch.setattr(module, "pinching_check", counting)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"case = ball-constant\nresolution = 9\noutput = {tmp_path / 'out'}\n")
        assert main(["solve", "--config", str(cfg)]) == 0
        assert len(calls) == 1

    def test_seed_is_not_a_solve_option(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", "--seed", "1"])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n")
        with pytest.raises(ValueError, match="unknown key 'seed'"):
            parse_config(cfg)

    def test_nan_in_data_file_is_refused_without_traceback(self, tmp_path, capsys):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        f = np.full(grid.n_active, 8.0)
        f[5] = np.nan
        f.astype("<f8").tofile(tmp_path / "f.bin")
        grid.colloc_quad.astype("<f8").tofile(tmp_path / "phi.bin")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {tmp_path / 'f.bin'}\n"
            f"phi.file = {tmp_path / 'phi.bin'}\noutput = {tmp_path / 'out'}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "f at active point 5 is nan" in err
        assert "Traceback" not in err


    def test_step_underflow_dumps_last_good_state(self, tmp_path, capsys, monkeypatch):
        # one Newton iteration per step cannot reach t = 0.5, and halving
        # the step once more underflows MIN_STEP
        monkeypatch.setattr(nconvex.solver, "MAX_NEWTON_ITERS", 1)
        monkeypatch.setattr(nconvex.solver, "MIN_STEP", 0.3)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-manufactured-exp\nresolution = 9\nhomotopy_steps = 1\n"
            f"output = {out}\n"
        )
        assert main(["solve", "--config", str(cfg)]) == 1
        assert "step size underflow" in capsys.readouterr().err
        assert (out / "path_report.csv").is_file()
        assert not (out / "solution").exists()
        _, _, t = load_solution_dump(out / "last_good")
        assert t == 0.0

    def test_newton_failure_at_t0_is_one_line(self, tmp_path, capsys):
        # the seed residual (2.7e-14) cannot be pushed below newton_tol
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case = ball-constant\nresolution = 9\nnewton_tol = 1e-18\n"
                       f"output = {out}\n")
        assert main(["solve", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("continuation failed:") and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (out / "last_good").exists()


class TestErrorReporting:
    """A ValueError from any command is one line on stderr and exit 2."""

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        return code, err

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    def test_unknown_case(self, tmp_path, capsys, command):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"case = no-such\noutput = {tmp_path / 'out'}\n")
        code, err = self.run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert "unknown case 'no-such'" in err

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    def test_unknown_domain_kind(self, tmp_path, capsys, command):
        # the size key names the shape, so domain.kind is not a key at all
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"domain.kind = ball\noutput = {tmp_path / 'out'}\n")
        code, err = self.run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert "run.cfg:1: unknown key 'domain.kind'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    @pytest.mark.parametrize("kind, key", [("ball", "domain.radius"),
                                           ("ellipsoid", "domain.semi_axes")])
    def test_domain_size_missing(self, tmp_path, capsys, monkeypatch, command, kind, key):
        # a center without a size key names the size key of each shape
        work = []
        monkeypatch.setattr(nconvex.cli, "pinching_check", lambda *a: work.append("gate"))
        monkeypatch.setattr(nconvex.cli, "Grid", lambda *a: work.append("grid"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"domain.center = 5,5,5\noutput = {tmp_path / 'out'}\n")
        code, err = self.run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: domain.center needs a size key")
        assert f"{key} for a" in err and kind in err
        assert work == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    @pytest.mark.parametrize("lines, detail", [
        ("n = 4\ndomain.semi_axes = 1,1,1.05\n",
         "domain.semi_axes has 3 entries but n = 4"),
        ("domain.semi_axes = 1,1,1,1.05\n",
         "domain.semi_axes has 4 entries but n = 3"),
        ("domain.semi_axes = 1,1,1.05\ndomain.radius = 2.0\n",
         "give domain.radius or domain.semi_axes, not both"),
        ("domain.center = 5,5,5\n", "domain.center needs a size key"),
        ("domain.radius = 1.0\ndomain.semi_axes = 1,1,1.05\n",
         "give domain.radius or domain.semi_axes, not both"),
    ], ids=["axes-short-of-n", "axes-beyond-n", "radius-on-ellipsoid", "center-without-kind",
            "axes-on-ball"])
    def test_unread_domain_key_refused_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, lines, detail):
        work = []
        monkeypatch.setattr(nconvex.cli, "pinching_check", lambda *a: work.append("gate"))
        monkeypatch.setattr(nconvex.cli, "Grid", lambda *a: work.append("grid"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines}output = {tmp_path / 'out'}\n")
        code, err = self.run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ") and detail in err
        assert work == [] and not (tmp_path / "out").exists()

    def test_bad_boolean_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"verify_barriers = ture\noutput = {tmp_path / 'out'}\n")
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "run.cfg:1: bad value for 'verify_barriers'" in err
        assert not (tmp_path / "out").exists()

    def test_unknown_report_format_refused_before_solving(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"resolution = 9\nreport = xml\noutput = {tmp_path / 'out'}\n")
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert "run.cfg:2: bad value for 'report': expected csv or json, got 'xml'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["min_step = 0", "min_step = -0.01", "min_step = nan",
                                      "newton_tol = nan", "max_newton_iters = 0",
                                      "homotopy_steps = 0", "newton_tol = 0"])
    def test_bad_solver_setting_refused_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, line):
        work = []
        monkeypatch.setattr(nconvex.cli, "pinching_check", lambda *a: work.append("gate"))
        monkeypatch.setattr(nconvex.cli, "Grid", lambda *a: work.append("grid"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\noutput = {tmp_path / 'out'}\n")
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ") and line.split()[0] in err
        assert work == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1.0", "0.4", "nan"])
    def test_gamma_outside_its_range_refused_before_any_work(self, tmp_path, capsys,
                                                             monkeypatch, value):
        # barrier.gamma = 1 used to run the whole solve and then divide by zero
        work = []
        monkeypatch.setattr(nconvex.cli, "pinching_check", lambda *a: work.append("gate"))
        monkeypatch.setattr(nconvex.cli, "Grid", lambda *a: work.append("grid"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case = ball-constant\nresolution = 9\nverify_barriers = true\n"
                       f"barrier.gamma = {value}\noutput = {tmp_path / 'out'}\n")
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ")
        assert "run.cfg:4: bad value for 'barrier.gamma': gamma must lie in [1/2, 1)" in err
        assert work == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    @pytest.mark.parametrize("lines, detail", [
        ("domain.radius = nan\n", "semi-axes must be finite"),
        ("domain.radius = inf\n", "semi-axes must be finite"),
        ("domain.radius = 1.0\ndomain.center = 0,nan,0\n",
         "center must be finite"),
    ], ids=["nan-radius", "inf-radius", "nan-center"])
    def test_non_finite_domain_is_config_error(self, tmp_path, capsys, command, lines,
                                               detail):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines}output = {tmp_path / 'out'}\n")
        code, err = self.run([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ") and detail in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "check-domain"])
    def test_missing_config_file_is_config_error(self, tmp_path, capsys, command):
        missing = tmp_path / "no-such.cfg"
        code, err = self.run([command, "--config", str(missing)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ") and str(missing) in err

    @pytest.mark.parametrize("absent", ["f.file", "phi.file"])
    def test_missing_data_file_is_config_error(self, tmp_path, capsys, absent):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        np.full(grid.n_active, 8.0).astype("<f8").tofile(tmp_path / "f.bin")
        grid.colloc_quad.astype("<f8").tofile(tmp_path / "phi.bin")
        files = {"f.file": tmp_path / "f.bin", "phi.file": tmp_path / "phi.bin"}
        files[absent] = tmp_path / "no-such.bin"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {files['f.file']}\n"
            f"phi.file = {files['phi.file']}\noutput = {tmp_path / 'out'}\n"
        )
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("configuration error: ") and "no-such.bin" in err

    @pytest.mark.parametrize("lines, detail", [
        ("n = 2\ndomain.radius = 1.0\n", "PDE runs need n >= 3, got n = 2"),
        ("resolution = 9\nf.file = f.bin\n", "custom data needs both f.file and phi.file"),
        ("resolution = 9\nphi.file = phi.bin\n", "custom data needs both f.file and phi.file"),
    ], ids=["n-below-3", "lone-f-file", "lone-phi-file"])
    def test_unsolvable_input_is_config_error_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, lines, detail):
        work = []
        monkeypatch.setattr(nconvex.cli, "pinching_check", lambda *a: work.append("gate"))
        monkeypatch.setattr(nconvex.cli, "Grid", lambda *a: work.append("grid"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{lines}output = {tmp_path / 'out'}\n")
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == f"configuration error: {detail}\n"
        assert work == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("longer, detail", [
        ("f", "f array has 180 values, grid has 179 active points"),
        ("phi", "phi array has 283 values, grid has 282 collocation points"),
    ], ids=["f", "phi"])
    def test_data_file_of_the_wrong_size(self, tmp_path, capsys, longer, detail):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        data = {"f": np.full(grid.n_active, 8.0), "phi": grid.colloc_quad}
        data[longer] = np.append(data[longer], 1.0)
        for name, values in data.items():
            values.astype("<f8").tofile(tmp_path / f"{name}.bin")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {tmp_path / 'f.bin'}\n"
            f"phi.file = {tmp_path / 'phi.bin'}\noutput = {tmp_path / 'out'}\n"
        )
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == f"configuration error: {detail}\n"

    def test_data_file_with_a_partial_value(self, tmp_path, capsys):
        # f.bin holds 3 bytes and phi.bin 1 byte past their whole values,
        # which np.fromfile would drop without a word
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        (tmp_path / "f.bin").write_bytes(np.full(grid.n_active, 8.0).astype("<f8").tobytes()
                                         + b"\0\0\0")
        (tmp_path / "phi.bin").write_bytes(grid.colloc_quad.astype("<f8").tobytes() + b"\0")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"resolution = 9\nf.file = {tmp_path / 'f.bin'}\n"
            f"phi.file = {tmp_path / 'phi.bin'}\noutput = {tmp_path / 'out'}\n"
        )
        code, err = self.run(["solve", "--config", str(cfg)], capsys)
        assert code == 2
        assert err == (f"configuration error: {tmp_path / 'f.bin'} holds "
                       f"{8 * grid.n_active + 3} bytes, not a whole number of 8-byte values\n")
        assert not (tmp_path / "out").exists()

    def test_rank_deficient_grid(self, tmp_path, capsys):
        # forced past the pinching gate, the (1, 1, 3) ellipsoid cannot build
        # a 9^3 grid: its boundary collocation stencil is rank deficient
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "case = ball-constant\n"
            "domain.semi_axes = 1.0,1.0,3.0\nresolution = 9\n"
            f"output = {tmp_path / 'out'}\n"
        )
        code, err = self.run(["solve", "--force", "--config", str(cfg)], capsys)
        assert code == 2
        assert "rank deficient" in err


class TestSolutionDump:
    @pytest.mark.parametrize("name", ["active_idx.bin", "colloc_y.bin"])
    def test_edited_grid_array_rejected(self, tmp_path, name):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        dump = write_solution_dump(tmp_path / "dump", grid, quadratic_seed(grid), 1.0)
        load_solution_dump(dump)  # the untouched dump loads
        path = dump / name
        dtype = "<i8" if name == "active_idx.bin" else "<f8"
        data = np.fromfile(path, dtype=dtype)
        data[3] += 1 if name == "active_idx.bin" else 1e-3
        data.tofile(path)
        with pytest.raises(ValueError, match=name):
            load_solution_dump(dump)

    @pytest.mark.parametrize("name, extra, detail", [
        ("values.bin", b"\0\0", r"values\.bin holds 1434 bytes, not a whole number of 8-byte values"),
        ("trace.bin", b"\0" * 8, r"trace\.bin holds 283 values, the rebuilt grid needs 282"),
        ("active_idx.bin", b"\0\0", r"active_idx\.bin holds 1434 bytes"),
        ("colloc_y.bin", b"\0" * 5, r"colloc_y\.bin holds 6773 bytes"),
    ], ids=["values-partial", "trace-longer", "active-idx-partial", "colloc-y-partial"])
    def test_array_file_of_the_wrong_size_rejected(self, tmp_path, name, extra, detail):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        dump = write_solution_dump(tmp_path / "dump", grid, quadratic_seed(grid), 1.0)
        with open(dump / name, "ab") as data:
            data.write(extra)
        with pytest.raises(ValueError, match=detail):
            load_solution_dump(dump)

    def test_unknown_domain_kind_rejected(self, tmp_path):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        dump = write_solution_dump(tmp_path / "dump", grid, quadratic_seed(grid), 1.0)
        header = json.loads((dump / "header.json").read_text())
        header["domain"]["kind"] = "cube"
        (dump / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=r"header\.json names unknown domain kind 'cube'"):
            load_solution_dump(dump)


    @pytest.mark.parametrize("edit, detail", [
        (lambda header: header.update(format="nconvex-dump-0"), "unrecognized dump format"),
        (lambda header: header["counts"].update(active=header["counts"]["active"] + 1),
         r"header\.json: dump counts do not match the rebuilt grid"),
        (lambda header: header.update(t=2.0), r"header\.json gives t = 2\.0, outside \[0, 1\]"),
        (lambda header: header.update(t=float("nan")), r"header\.json gives t = nan"),
        (lambda header: header.update(t=-1), r"header\.json gives t = -1\.0"),
        (lambda header: header.update(byte_order="big"),
         r"header\.json gives byte order 'big'; dumps are little-endian"),
        (lambda header: header["domain"].update(kind="ellipsoid"),
         r"header\.json names domain kind 'ellipsoid', but its semi-axes make a ball"),
        (lambda header: header.update(n=7), r"header\.json gives n = 7 but 3 semi-axes"),
        (lambda header: header.update(h=123),
         r"header\.json gives h = 123, the rebuilt grid 0\.25"),
        (lambda header: header.pop("t"), r"header\.json has no key 't'"),
        (lambda header: header.pop("domain"), r"header\.json has no key 'domain\.kind'"),
        (lambda header: header["domain"].pop("semi_axes"),
         r"header\.json has no key 'domain\.semi_axes'"),
        (lambda header: header.pop("resolution"), r"header\.json has no key 'resolution'"),
        (lambda header: header["counts"].pop("colloc"),
         r"header\.json has no key 'counts\.colloc'"),
    ], ids=["format", "counts", "t-above-1", "t-nan", "t-negative", "big-endian", "kind", "n",
            "h", "no-t", "no-domain", "no-semi-axes", "no-resolution", "no-colloc-count"])
    def test_edited_header_rejected(self, tmp_path, edit, detail):
        grid = Grid(DomainSpec.ball(1.0, n=3), 9)
        dump = write_solution_dump(tmp_path / "dump", grid, quadratic_seed(grid), 1.0)
        header = json.loads((dump / "header.json").read_text())
        edit(header)
        (dump / "header.json").write_text(json.dumps(header))
        with pytest.raises(ValueError, match=detail):
            load_solution_dump(dump)


class TestCheckDomain:
    def test_ball_passes(self, capsys):
        assert main(["check-domain"]) == 0
        out = capsys.readouterr().out
        assert "pinching PASS" in out

    def test_eccentric_reported(self, tmp_path, capsys):
        cfg = tmp_path / "dom.cfg"
        cfg.write_text(
            "n = 3\ndomain.semi_axes = 1.0,1.0,3.0\n"
        )
        assert main(["check-domain", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "pinching FAIL" in out
        assert "refused" in out

    def test_four_axis_ellipsoid_needs_n_4(self, tmp_path, capsys):
        cfg = tmp_path / "dom.cfg"
        cfg.write_text("n = 4\ndomain.semi_axes = 1,1,1,1.05\n")
        assert main(["check-domain", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "pinching PASS" in out and "n=3 corollary" not in out
