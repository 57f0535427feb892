import json

from circumsolve.cli import main


def test_gen_solve_bench_profile_pipeline(tmp_path, capsys):
    ps = tmp_path / "probs.json"
    rc = main(
        [
            "gen", "--n", "12", "--cf-lo", "0.3", "--cf-hi", "0.7",
            "--pairs", "2", "--points", "2", "--seed", "17",
            "--p", "3", "--q", "3", "--r", "1", "--out", str(ps),
        ]
    )
    assert rc == 0
    doc = json.loads(ps.read_text())
    assert doc["version"] == 1 and len(doc["pairs"]) == 2

    trace = tmp_path / "trace.csv"
    rc = main(
        [
            "solve", "--problem-set", str(ps), "--problem-id", "pair000:00",
            "--solver", "crm-s3", "--tol", "1e-6", "--trace", str(trace),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "solved" in out
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "iteration,error"
    ks, errs = zip(*(line.split(",") for line in lines[1:]))
    assert list(map(int, ks)) == list(range(len(ks)))
    assert all(float(e) >= 0 for e in errs)  # plain parseable numbers

    matrix = tmp_path / "matrix.csv"
    rc = main(
        [
            "bench", "--problem-set", str(ps), "--solvers", "crm-s2,crm-s3,drm,map",
            "--measure", "iters", "--out", str(matrix),
        ]
    )
    assert rc == 0
    assert matrix.exists() and matrix.with_suffix(".profile.csv").exists()

    profile = tmp_path / "profile.csv"
    rc = main(["profile", "--matrix", str(matrix), "--out", str(profile)])
    assert rc == 0
    assert profile.read_text().startswith("tau,log2_tau,")


def test_unknown_problem_id_exits_nonzero(tmp_path, capsys):
    ps = tmp_path / "probs.json"
    main(
        [
            "gen", "--n", "8", "--cf-lo", "0.2", "--cf-hi", "0.6",
            "--pairs", "1", "--points", "1", "--seed", "3",
            "--p", "2", "--q", "2", "--r", "0", "--out", str(ps),
        ]
    )
    rc = main(["solve", "--problem-set", str(ps), "--problem-id", "nope", "--solver", "map"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_problem_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": 5}")
    rc = main(["bench", "--problem-set", str(bad), "--solvers", "map", "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "version" in capsys.readouterr().err


def _tiny_set(tmp_path):
    ps = tmp_path / "probs.json"
    main(
        [
            "gen", "--n", "8", "--cf-lo", "0.2", "--cf-hi", "0.6",
            "--pairs", "1", "--points", "2", "--seed", "3",
            "--p", "2", "--q", "2", "--r", "0", "--out", str(ps),
        ]
    )
    return ps


def test_bench_with_a_solver_named_twice_exits_nonzero(tmp_path, capsys):
    ps, matrix = _tiny_set(tmp_path), tmp_path / "m.csv"
    rc = main(["bench", "--problem-set", str(ps), "--solvers", "crm_s3,crm-s3", "--out", str(matrix)])
    assert rc == 1
    assert "'crm-s3' is named twice" in capsys.readouterr().err
    assert not matrix.exists()


def test_bench_with_no_solver_exits_nonzero_before_writing(tmp_path, capsys):
    ps, matrix = _tiny_set(tmp_path), tmp_path / "m.csv"
    rc = main(["bench", "--problem-set", str(ps), "--solvers", ",", "--out", str(matrix)])
    assert rc == 1
    assert "--solvers" in capsys.readouterr().err
    assert not matrix.exists() and not matrix.with_suffix(".profile.csv").exists()
