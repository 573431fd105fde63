"""Experiment configs and the command-line front-end."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diskwarp
from diskwarp import checks
import diskwarp.cli as cli_module
from diskwarp.cli import main, run_experiment, run_oracle
from diskwarp.config import ExperimentConfig, load_config
from diskwarp.errors import (ConfigParseError, ConfigValidationError, NoConvergenceError,
                             NotConformalError)


def write_config(tmp_path, file_name=None, **overrides):
    doc = {
        "name": "tiny",
        "alpha": 0.1,
        "N": 6,
        "n": 6,
        "target": [[0.0, 0.0], [0.5, 0.0]],
        "mesh": {"circles": 2, "rays": 4},
        "format": "csv",
    }
    doc.update(overrides)
    path = tmp_path / (file_name or f"{doc['name']}.json")
    path.write_text(json.dumps(doc))
    return path


def test_load_shipped_example_configs(config_dir):
    one = load_config(config_dir / "example1a.json")
    assert one.alpha == 0.1
    assert one.num_steps == 20 and one.degree_bound == 16
    assert one.target[1] == 0.5

    two = load_config(config_dir / "example2a.json")
    assert two.target[1].real == pytest.approx(0.309017, abs=1e-6)
    assert two.target[1].imag == pytest.approx(0.951057, abs=1e-6)

    four = load_config(config_dir / "example4b.json")
    assert four.alpha == 10.0
    assert len(four.target) == 8
    assert four.target[7] == pytest.approx(0.27937125)


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigValidationError, match="alpha"):
        load_config(write_config(tmp_path, alpha=-1.0))
    with pytest.raises(ConfigValidationError, match="degree bound"):
        load_config(write_config(tmp_path, target=[[0, 0]] * 7))
    with pytest.raises(ConfigValidationError, match="format"):
        load_config(write_config(tmp_path, format="png"))
    with pytest.raises(ConfigValidationError, match="target\\[1\\]"):
        load_config(write_config(tmp_path, target=[[0, 0], [1]]))
    with pytest.raises(ConfigValidationError, match="unknown field 'fromat'"):
        load_config(write_config(tmp_path, fromat="csv"))
    with pytest.raises(ConfigValidationError, match="unknown mesh field 'circle'"):
        load_config(write_config(tmp_path, mesh={"circle": 3}))
    with pytest.raises(ConfigValidationError, match="unknown field 'output'"):
        load_config(write_config(tmp_path, output="out"))
    with pytest.raises(ConfigValidationError, match="'mesh' must be an object"):
        load_config(write_config(tmp_path, mesh=[2, 4]))
    with pytest.raises(ConfigValidationError, match="target must be a list"):
        load_config(write_config(tmp_path, target="z"))
    with pytest.raises(ConfigParseError, match="top level must be an object"):
        path = tmp_path / "array.json"
        path.write_text("[]")
        load_config(path)
    with pytest.raises(ConfigValidationError, match="missing"):
        path = tmp_path / "missing.json"
        path.write_text('{"name": "x"}')
        load_config(path)


@pytest.mark.parametrize("key", ["circles", "rays"])
def test_mesh_counts_must_be_integers(tmp_path, key):
    mesh = {"circles": 2, "rays": 4, key: 2.7}
    with pytest.raises(ConfigValidationError, match=f"{key} must be an integer >= 1, got 2.7"):
        load_config(write_config(tmp_path, mesh=mesh))


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  "alpha": }')
    with pytest.raises(ConfigParseError, match="line 2"):
        load_config(path)


def test_run_experiment_writes_frames_and_report(tmp_path):
    config = load_config(write_config(tmp_path))
    result, out_dir, elapsed = run_experiment(config, tmp_path / "out")
    assert result.converged
    assert (out_dir / "frames.csv").exists()
    report = (out_dir / "report.txt").read_text()
    assert report.startswith("name: tiny\n")
    assert "converged: true" in report
    assert "wall" not in report  # timings stay out of the reproducible report
    assert elapsed > 0


def test_identity_experiment_frames_are_constant(tmp_path):
    config = load_config(
        write_config(tmp_path, name="ident", target=[[0.0, 0.0], [1.0, 0.0]], format="svg")
    )
    _, out_dir, _ = run_experiment(config, tmp_path / "out-ident")
    frames = sorted(out_dir.glob("frame_*.svg"))
    assert len(frames) == 7
    first = frames[0].read_bytes()
    assert all(f.read_bytes() == first for f in frames[1:])


def test_oracle_requires_linear_target(tmp_path):
    config = load_config(write_config(tmp_path, name="nl", target=[[0, 0], [1, 0], [0.2, 0]]))
    with pytest.raises(ConfigValidationError, match="linear"):
        run_oracle(config, tmp_path / "nope")


def test_oracle_writes_reference_path(tmp_path):
    config = load_config(write_config(tmp_path, name="lin"))
    path, out_dir = run_oracle(config, tmp_path / "oracle-out")
    assert (out_dir / "report.txt").exists()
    assert (out_dir / "frames.csv").exists()
    assert path.steps[0, 1] == 1.0
    assert path.steps[-1, 1] == 0.5


def test_rerun_into_a_directory_leaves_only_its_own_frames(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    (out / "frame_notes.svg").write_text("kept")

    def run(frame_format, num_steps):
        run_experiment(load_config(write_config(tmp_path, N=num_steps, format=frame_format)), out)
        return sorted(p.name for p in out.iterdir())

    kept = ["frame_notes.svg", "notes.txt", "report.txt"]
    assert run("svg", 8) == sorted(kept + [f"frame_{k:03d}.svg" for k in range(9)])
    assert run("svg", 6) == sorted(kept + [f"frame_{k:03d}.svg" for k in range(7)])
    assert (out / "report.txt").read_text().endswith("'frame_005.svg', 'frame_006.svg']\n")
    assert run("csv", 6) == sorted(kept + ["frames.csv"])
    assert run("svg", 6) == sorted(kept + [f"frame_{k:03d}.svg" for k in range(7)])


def test_cli_solve_and_exit_codes(tmp_path, capsys):
    config_path = write_config(tmp_path)
    assert main(["solve", str(config_path), "--output", str(tmp_path / "cli-out")]) == 0
    out = capsys.readouterr().out
    assert "converged" in out and "tiny" in out

    assert main(["solve", str(tmp_path / "does-not-exist.json")]) == 1


@pytest.mark.parametrize(
    "argv", [[], ["solve"], ["oracle"], ["sweep", "x.json"], ["solve", "x.json", "--bogus", "o"],
             ["fly"]],
    ids=["no-verb", "solve-no-config", "oracle-no-config", "sweep-no-alpha", "unknown-option",
         "unknown-verb"],
)
def test_cli_usage_error_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    """A usage error exits with the config-error code, not argparse's 2, which
    is no convergence's, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "usage: diskwarp" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"], ["sweep", "-h"]])
def test_cli_help_exits_0(argv, capsys):
    assert main(argv) == 0
    assert "usage: diskwarp" in capsys.readouterr().out


def test_cli_main_under_redirected_streams(tmp_path):
    """main runs with stdout and stderr redirected to objects that have no
    ``reconfigure``, such as io.StringIO."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        oracle = main(["oracle", str(write_config(tmp_path)), "--output", str(tmp_path / "o")])
        missing = main(["solve", str(tmp_path / "does-not-exist.json")])
    assert (oracle, missing) == (0, 1)
    assert out.getvalue() == f"tiny: oracle path written -> {tmp_path / 'o'}\n"
    assert err.getvalue().startswith("config error: ")


def _run_under_an_ascii_locale(args, cwd=None):
    """``python -m diskwarp.cli`` with ASCII as the locale's and the
    filesystem's encoding."""
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": str(Path(diskwarp.__file__).parents[1])}
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run([sys.executable, "-m", "diskwarp.cli", *args], cwd=cwd, env=env,
                          capture_output=True)


def test_cli_solve_under_an_ascii_locale(tmp_path):
    """A name the locale cannot encode: the report is UTF-8 and the summary
    line escapes it, so the run still exits 0."""
    config_path = write_config(tmp_path, name="café")
    run_experiment(load_config(config_path), tmp_path / "in-process")
    proc = _run_under_an_ascii_locale(["solve", str(config_path),
                                       "--output", str(tmp_path / "ascii")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"caf\\xe9: converged")
    assert ((tmp_path / "ascii" / "report.txt").read_bytes()
            == (tmp_path / "in-process" / "report.txt").read_bytes())


def test_cli_unencodable_output_directory_is_a_config_error(tmp_path):
    """Under an ASCII filesystem encoding the default directory out/café
    cannot be made: every verb exits 1 with a config error naming it, before
    the solve or the closed form, and writes nothing."""
    config_path = write_config(tmp_path, name="café")
    work = tmp_path / "work"
    work.mkdir()
    for args in (["solve"], ["oracle"], ["sweep", "--alpha", "0.1,1"]):
        proc = _run_under_an_ascii_locale([*args, str(config_path)], cwd=work)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(b"config error: output directory 'out/caf\\xe9"), proc.stderr
        assert proc.stdout == b""
    assert list(work.iterdir()) == []
    # a lone surrogate encodes in no filesystem encoding, in process too
    with pytest.raises(ConfigValidationError, match="cannot be encoded"):
        cli_module._output_dir("out/\ud800", load_config(config_path))


def test_cli_output_path_through_a_file_is_a_config_error(tmp_path, monkeypatch, capsys):
    """An output directory that is, or lies under, an existing file or a
    dangling symlink, that holds a name longer than its filesystem allows,
    or in which the path of a file the run writes would reach the
    filesystem's path limit, is a config error for every verb, raised before
    the solve or the closed form; a symlink to a directory is a valid
    output."""
    def not_called(*args, **kwargs):
        raise AssertionError("computed before the output directory was checked")

    monkeypatch.setattr(cli_module, "solve", not_called)
    monkeypatch.setattr(cli_module, "closed_form", not_called)
    config_path = write_config(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    verbs = (["solve"], ["oracle"], ["sweep", "--alpha", "0.1,1"])
    for block in (blocker, dangling):
        for output in (block, block / "sub"):
            for args in verbs:
                assert main([*args, str(config_path), "--output", str(output)]) == 1
                err = capsys.readouterr().err
                assert err == (f"config error: output directory {str(output)!r} cannot be made: "
                               f"{str(block)!r} is not a directory\n")
    assert blocker.read_text() == "kept"
    assert not (tmp_path / "nowhere").exists()

    # a 300-byte name, as the config's name under out/ or in --output
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    long_name = "n" * 300
    named = write_config(tmp_path, file_name="long.json", name=long_name)
    for args in verbs:
        for config, output in ((named, []), (config_path, ["--output", f"x/{long_name}"])):
            assert main([*args, str(config), *output]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error: output directory ") and "name longer than" in err
    assert list(work.iterdir()) == []

    # paths of names of 250 bytes, cut where a file the run writes in them
    # reaches the path limit, the terminating NUL included
    path_max = os.pathconf(work, "PC_PATH_MAX")
    deep = "/".join(["n" * 250] * (path_max // 251 + 1))
    svg = write_config(tmp_path, file_name="svg.json", format="svg")
    runs = [(args, config_path, deep) for args in verbs] + [
        # the path of frame_006.svg would be one byte too long; report.txt's fits
        (["solve"], svg, deep[:path_max - 14]), (["oracle"], svg, deep[:path_max - 14]),
        # alpha-1/report.txt fits and alpha-0.1/report.txt is one byte too
        # long, so the first variant's solve would run if only its own path
        # were checked
        (["sweep", "--alpha", "1,0.1"], config_path, deep[:path_max - 21]),
    ]
    for args, config, output in runs:
        assert main([*args, str(config), "--output", output]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output directory ") and "fewer than" in err, err[-200:]
    assert list(work.iterdir()) == []

    monkeypatch.undo()
    (tmp_path / "target").mkdir()
    linked = tmp_path / "linked"
    linked.symlink_to(tmp_path / "target")
    for args in verbs:
        for output in (linked, linked / "sub"):
            assert main([*args, str(config_path), "--output", str(output)]) == 0
    assert (tmp_path / "target" / "sub").is_dir()


# names that are not a single plain path component; as the default output
# directory out/<name> they would point outside out/, or hold a control
# character that would forge lines of report.txt
UNSAFE_NAMES = ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b", "a\nb", "a\rb",
                "a\tb"]


def test_cli_config_error_exit_code(tmp_path, monkeypatch, capsys):
    bad = write_config(tmp_path, name="bad", alpha=-3.0)
    assert main(["solve", str(bad)]) == 1

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for name in UNSAFE_NAMES:
        unsafe = write_config(tmp_path, file_name="unsafe.json", name=name)
        for verb in ("solve", "oracle"):
            assert main([verb, str(unsafe)]) == 1
            assert "config error" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "unsafe.json", "work"]

    # JSON booleans are not numbers, although bool subclasses int
    for overrides in ({"alpha": True}, {"mesh": {"circles": True, "rays": True}},
                      {"target": [[0.0, 0.0], [True, False]]}, {"N": True}):
        flagged = write_config(tmp_path, file_name="bool.json", name="bool", **overrides)
        assert main(["solve", str(flagged)]) == 1
        assert "config error" in capsys.readouterr().err
    assert list(work.iterdir()) == []

    # unknown fields, output among them (--output places a run), fail before
    # the solve or closed form
    for overrides, message in (({"output": "elsewhere"}, "unknown field 'output'"),
                               ({"fromat": "svg"}, "unknown field 'fromat'"),
                               ({"mesh": {"circle": 3, "rays": 4}}, "unknown mesh field 'circle'")):
        odd = write_config(tmp_path, file_name="odd.json", name="odd", **overrides)
        for verb in ("solve", "oracle"):
            assert main([verb, str(odd)]) == 1
            err = capsys.readouterr().err
            assert "config error" in err and message in err
    assert list(work.iterdir()) == []

    # a JSON integer too large for a float
    huge = write_config(tmp_path, file_name="huge.json", name="huge",
                        target=[[0.0, 0.0], [10**400, 0.0]])
    for verb in ("solve", "oracle"):
        assert main([verb, str(huge)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "target[1]" in err
    assert list(work.iterdir()) == []

    # JSON text is UTF-8; a UTF-16 byte-order mark is not
    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b"\xff\xfe" + write_config(tmp_path).read_bytes())
    for verb in ("solve", "oracle"):
        assert main([verb, str(garbled)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "garbled.json" in err and "UTF-8" in err
    assert list(work.iterdir()) == []


@pytest.mark.parametrize(
    "overrides",
    [
        {"alpha": float("nan")},
        {"alpha": float("inf")},
        {"target": [[0.0, 0.0], [float("nan"), 0.0]]},
        {"target": [[0.0, 0.0], [0.5, float("-inf")]]},
    ],
    ids=["alpha-nan", "alpha-inf", "target-nan", "target-inf"],
)
def test_cli_rejects_non_finite_values(tmp_path, capsys, overrides):
    config_path = write_config(tmp_path, name="nonfinite", **overrides)
    assert main(["solve", str(config_path), "--output", str(tmp_path / "nf-out")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "nf-out").exists()


def test_cli_nonconformal_exit_code(tmp_path):
    # derivative of the target vanishes on the certification grid
    bad = write_config(
        tmp_path, name="cusp", target=[[0.0, 0.0], [1.0, 0.0], [-1.0 / 1.5, 0.0]]
    )
    assert main(["solve", str(bad), "--output", str(tmp_path / "cusp-out")]) == 3
    assert not (tmp_path / "cusp-out" / "report.txt").exists()  # no partial output


def test_cli_nan_certificate_exit_code(tmp_path):
    # the target's endpoint certificate is NaN: not conformal, not a failed solve
    bad = write_config(tmp_path, name="overflow", N=4, n=4,
                       target=[[0.0, 0.0], [1.0, 0.0], [1e308, 0.0]])
    assert main(["solve", str(bad), "--output", str(tmp_path / "overflow-out")]) == 3


def test_cli_no_convergence_exit_code(tmp_path, monkeypatch):
    original = cli_module.SolverConfig

    def strangled(**kwargs):
        kwargs["max_iters"] = 1
        return original(**kwargs)

    monkeypatch.setattr(cli_module, "SolverConfig", strangled)
    config_path = write_config(tmp_path, name="strangled")
    assert main(["solve", str(config_path), "--output", str(tmp_path / "s-out")]) == 2


OVERFLOW = {"solve": 2, "sweep": 2, "oracle": 1}
NOT_CONFORMAL = {"solve": 3, "sweep": 3, "oracle": 1}


@pytest.mark.parametrize("modulus, alpha, codes", [
    (1e200, 0.0, OVERFLOW), (1e200, 0.1, OVERFLOW),  # the action overflows
    (1e-200, 0.0, NOT_CONFORMAL), (1e-200, 0.1, NOT_CONFORMAL),  # the target is not conformal
    (0.5, 1e308, OVERFLOW),  # the action overflows
], ids=["1e200-0.0", "1e200-0.1", "1e-200-0.0", "1e-200-0.1", "0.5-1e308"])
def test_cli_extreme_finite_targets_end_with_documented_exit_codes(tmp_path, capsys, modulus,
                                                                    alpha, codes):
    """Every verb, sweep at the config's alpha, ends with its exit code,
    without a traceback, a warning (filterwarnings = error) or an output
    directory; oracle's endpoint or alpha is outside the closed form's
    range."""
    config_path = write_config(tmp_path, name="extreme", alpha=alpha, N=6, n=4,
                               target=[[0.0, 0.0], [modulus, 0.0]])
    for verb, options in (("solve", []), ("sweep", ["--alpha", repr(alpha)]), ("oracle", [])):
        out_dir = tmp_path / verb
        assert main([verb, *options, str(config_path), "--output", str(out_dir)]) == codes[verb]
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert not out_dir.exists()
        if verb != "sweep":  # sweep reports each alpha's failure on stdout
            assert err.count("\n") == 1
            assert err.startswith({1: "config error: ", 2: "no convergence: ",
                                   3: "not conformal: "}[codes[verb]])


def test_cli_oracle_and_branch_failure(tmp_path):
    lin = write_config(tmp_path, name="lin2")
    assert main(["oracle", str(lin), "--output", str(tmp_path / "o-out")]) == 0
    # at alpha = 0 the minimizer for a rotation past a quarter turn runs
    # through c = 0, which fails with its own exit code
    far = write_config(
        tmp_path,
        name="far",
        alpha=0.0,
        target=[[0.0, 0.0], [float(np.cos(0.95 * np.pi)), float(np.sin(0.95 * np.pi))]],
    )
    assert main(["oracle", str(far), "--output", str(tmp_path / "far-out")]) == 4


def test_cli_check_verb():
    assert main(["check"]) == 0


def test_battery_runs_every_check():
    """``diskwarp check`` and the tests call the same checks: every function
    that ``diskwarp.checks`` exports is in its battery."""
    run = {check for _, check, _, _ in checks.BATTERY}
    assert run == {getattr(checks, name) for name in checks.__all__ if name != "BATTERY"}


def test_cli_check_fails_on_a_wrong_gradient(monkeypatch, capsys):
    exact = checks.action_gradient
    monkeypatch.setattr(checks, "action_gradient",
                        lambda path, alpha: exact(path, alpha) * (1 + 1e-4))
    assert main(["check"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert failed and all("action gradient matches finite differences" in line for line in failed)
    assert "check(s) failed" in out


def test_cli_sweep(tmp_path, capsys):
    config_path = write_config(tmp_path, name="sweepme")
    code = main([
        "sweep", "--alpha", "0.1,1.0", str(config_path),
        "--output", str(tmp_path / "sweep-out"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha=0.1" in out and "alpha=1" in out
    assert (tmp_path / "sweep-out" / "alpha-0.1" / "report.txt").exists()
    assert (tmp_path / "sweep-out" / "alpha-1" / "report.txt").exists()


def test_cli_sweep_exits_with_the_worst_status(tmp_path, capsys, monkeypatch):
    # lost conformality (3) followed by no convergence (2) still exits 3
    failures = iter([NotConformalError("lost"), NoConvergenceError("budget")])

    def failing_solve(config, target):
        raise next(failures)

    monkeypatch.setattr(cli_module, "solve", failing_solve)
    config_path = write_config(tmp_path, name="sweepfail")
    code = main(["sweep", "--alpha", "0.1,1", str(config_path),
                 "--output", str(tmp_path / "sweep-out")])
    assert code == 3
    assert capsys.readouterr().out.count("FAILED") == 2


@pytest.mark.parametrize(
    "alphas", ["0.1,abc", "0.1,nan", "0.1,inf", "0.1,-1", ",", "0.1,0.1000001", "1,1.0"],
    ids=["non-numeric", "nan", "inf", "negative", "empty", "same-6-digits", "same-value"],
)
def test_cli_sweep_rejects_bad_alpha_list(tmp_path, capsys, alphas):
    config_path = write_config(tmp_path, name="sweepbad")
    out = tmp_path / "sweep-out"
    assert main(["sweep", "--alpha", alphas, str(config_path), "--output", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()  # the whole list is checked before the first solve


def test_experiment_config_direct_validation():
    for target in ([0, float("nan")], [float("inf"), 1]):
        with pytest.raises(ConfigValidationError, match="target"):
            ExperimentConfig(name="x", alpha=0.1, num_steps=4, degree_bound=4, target=target)
    for target, index in (([0, 10**400], 1), ([-10**400, 1], 0)):
        with pytest.raises(ConfigValidationError, match=rf"target\[{index}\]"):
            ExperimentConfig(name="x", alpha=0.1, num_steps=4, degree_bound=4, target=target)
    for name in UNSAFE_NAMES + [5]:
        with pytest.raises(ConfigValidationError, match="path component"):
            ExperimentConfig(
                name=name, alpha=0.1, num_steps=4, degree_bound=4,
                target=np.array([0, 1], dtype=complex),
            )
    # nested, ragged and non-number targets, also beside an int too large for a float
    for target in ([[0, 1]], [[0, 10**400]], [1, [2, 3]], [1, [2, 10**400]]):
        with pytest.raises(ConfigValidationError, match="one-dimensional"):
            ExperimentConfig(name="x", alpha=0.1, num_steps=4, degree_bound=4, target=target)
    # text, bytes and bools are not numbers, as for alpha
    for target in (["a", 1], "12", ["1", 2], [b"1", 2], [True, 1]):
        with pytest.raises(ConfigValidationError, match=r"target\[0\] must be a number"):
            ExperimentConfig(name="x", alpha=0.1, num_steps=4, degree_bound=4, target=target)
    # alpha is stored as a float, so an integer alpha reports as 100.0
    config = ExperimentConfig(name="x", alpha=100, num_steps=4, degree_bound=4, target=[0, 1])
    assert repr(config.alpha) == "100.0"
