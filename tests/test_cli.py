import json
import os
import signal
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from flagpieces.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_pieces_counts(capsys):
    code, out, _ = run_cli(capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "pieces")
    assert code == 0
    assert "pieces=3" in out
    assert len([l for l in out.splitlines() if l.startswith("w=")]) == 3

    code, out, _ = run_cli(capsys, "--cartan", "A2", "--delta", "id", "--j", "", "pieces")
    assert code == 0
    assert "pieces=6" in out

    code, out, _ = run_cli(capsys, "--cartan", "A2", "--delta", "id", "--j", "1,2", "pieces")
    assert code == 0
    assert "pieces=1" in out
    assert "n/a: J=I" in out


def test_pieces_json(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "flip", "--j", "1", "pieces", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == "flip"
    assert len(payload["pieces"]) == 3
    assert {p["word"] for p in payload["pieces"]} == {"e", "2", "2,1"}


def test_poset_json_structure_and_schema(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "poset", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [n["word"] for n in payload["nodes"]] == ["e", "2", "2,1"]
    assert payload["hasse"] == [[0, 1], [1, 2]]
    schema = json.loads(
        resources.files("flagpieces").joinpath("schemas/poset.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


def test_poset_json_validates_schema_for_full_j(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A3", "--delta", "flip", "--j", "1,2,3", "poset", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"][0]["irreducible"] is None
    schema = json.loads(
        resources.files("flagpieces").joinpath("schemas/poset.schema.json").read_text()
    )
    jsonschema.validate(payload, schema)


def test_poset_empty_j_equals_bruhat_covers(capsys, group_of):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "", "poset", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    g = group_of("A2")
    expected = sorted(
        [u.index, v] for u in g.elements for v in g.bruhat_covers_up[u.index]
    )
    assert payload["hasse"] == expected


def test_poset_dot_output(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "poset", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph")
    assert "n0 -> n1;" in out
    assert "n1 -> n2;" in out
    assert "rank=same" in out


def test_dot_rejected_for_other_commands(capsys):
    code, _, err = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "pieces", "--format", "dot"
    )
    assert code == 2
    assert "dot" in err


def test_orbit_listing(capsys):
    code, out, _ = run_cli(capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "orbits")
    assert code == 0
    sizes = sorted(
        int(l.split("size=")[1].split()[0]) for l in out.splitlines() if l.startswith("orbit")
    )
    assert sizes == [1, 1, 2, 2]


def test_sequence_listing(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "sequence", "--w", "1,2"
    )
    assert code == 0
    lines = out.splitlines()
    assert "n=0 J=1 w=2" in lines
    assert "n=1 J=- w=2,1" in lines
    assert any(l.startswith("stable:") and "label=1,2" in l for l in lines)


def test_sequence_precondition_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "sequence", "--w", "1"
    )
    assert code == 2
    assert "precondition" in err and "W^J" in err


def test_closure_identity_single_stratum(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "closure", "--w", "e"
    )
    assert code == 0
    strata = [l for l in out.splitlines() if l.startswith("stratum")]
    assert strata == ["stratum e"]


def test_closure_accepts_non_reduced_words(capsys):
    _, out1, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "closure", "--w", "1,1"
    )
    _, out2, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "--j", "1", "closure", "--w", "e"
    )
    assert out1.replace("w=1,1", "w=e") == out2


def test_verify_passes_small_types(capsys):
    code, out, _ = run_cli(capsys, "--cartan", "A2", "--delta", "id", "verify")
    assert code == 0
    assert "all checks passed" in out
    assert all(l.startswith(("PASS", "#", "verdict")) for l in out.splitlines() if l)

    code, out, _ = run_cli(capsys, "--cartan", "A3", "--delta", "flip", "verify")
    assert code == 0


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "--cartan", "B2", "--delta", "id", "verify", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(not c["failures"] for c in payload["checks"])
    assert all(c["failure_count"] == 0 for c in payload["checks"])


def test_verify_json_counts_unsampled_failures(capsys, monkeypatch):
    from flagpieces import oracle

    def noisy(group):
        rep = oracle.OracleReport("group-order")
        for k in range(20):
            rep.instances_checked += 1
            rep.record(f"case {k}", "ok", "bad")
        return rep

    checks = tuple(
        (name, noisy if name == "group-order" else check) for name, check in oracle.GROUP_CHECKS
    )
    monkeypatch.setattr(oracle, "GROUP_CHECKS", checks)
    code, out, _ = run_cli(
        capsys, "--cartan", "A2", "--delta", "id", "verify", "--format", "json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    (check,) = [c for c in payload["checks"] if c["name"] == "group-order"]
    assert check["failure_count"] == 20
    assert len(check["failures"]) == 8


def test_corrupt_delta_exits_2_before_checks(capsys):
    code, _, err = run_cli(capsys, "--cartan", "B2", "--delta", "2,1", "verify")
    assert code == 2
    assert "Cartan-preserving" in err


def test_bad_cartan_exits_2(capsys):
    code, _, err = run_cli(capsys, "--cartan", "Z9", "--delta", "id", "pieces")
    assert code == 2
    assert "error:" in err


def test_bad_subset_exits_2(capsys):
    code, _, err = run_cli(capsys, "--cartan", "A2", "--delta", "id", "--j", "7", "pieces")
    assert code == 2
    assert "out of range" in err


def test_unknown_command_exits_2(capsys):
    code = main(["--cartan", "A2", "frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_cartan_exits_2(capsys):
    code = main(["pieces"])
    capsys.readouterr()
    assert code == 2


def test_words_in_output_reparse(capsys, group_of):
    from flagpieces import parse_word

    g = group_of("B2")
    code, out, _ = run_cli(capsys, "--cartan", "B2", "--delta", "id", "--j", "2", "pieces")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("w="):
            word = line.split()[0][2:]
            parse_word(g, word)  # must not raise


def test_repeat_runs_identical(capsys):
    args = ("--cartan", "B2", "--delta", "id", "--j", "1", "poset", "--format", "json")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_over_ceiling_type_exits_2(capsys):
    code, out, err = run_cli(capsys, "--cartan", "E8", "--delta", "id", "--j", "1", "pieces")
    assert code == 2
    assert out == ""
    assert err == (
        "error: group of type E8 exceeds the element ceiling 3000000; "
        "pass a larger max_elements to enumerate it anyway\n"
    )


def test_out_of_memory_exits_2(capsys, monkeypatch):
    import flagpieces.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "WeylGroup", exhausted)
    code, out, err = run_cli(capsys, "--cartan", "E7", "--delta", "id", "pieces")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory building E7")
    assert err.count("\n") == 1


@pytest.mark.parametrize("cartan,delta", [("A3", "flip"), ("B3", "id"), ("D4", "tri")])
def test_verify_output_same_for_any_worker_count(capsys, verify_workers, cartan, delta):
    for fmt in ("text", "json"):
        runs = []
        for width in (1, 2, 3):
            verify_workers(width)
            runs.append(run_cli(capsys, "--cartan", cartan, "--delta", delta, "--format", fmt, "verify"))
        assert runs[0][0] == 0
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


def _plant_in_worker(monkeypatch, action):
    """Make every per-J check run `action` in a worker process and pass in
    this one."""
    from flagpieces import oracle

    parent = os.getpid()

    def check(tc, J):
        if os.getpid() != parent:
            action()
        return oracle.OracleReport("planted")

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("planted", check),))


def test_worker_out_of_memory_exits_2(capsys, monkeypatch, verify_workers):
    def exhausted():
        raise MemoryError

    _plant_in_worker(monkeypatch, exhausted)
    verify_workers(2)
    code, out, err = run_cli(capsys, "--cartan", "A2", "--delta", "id", "verify")
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory building A2")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "end,status",
    [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal SIGKILL"),
    ],
)
def test_worker_death_exits_2(capsys, monkeypatch, verify_workers, end, status):
    _plant_in_worker(monkeypatch, end)
    verify_workers(2)
    code, out, err = run_cli(capsys, "--cartan", "A2", "--delta", "id", "verify")
    assert code == 2
    assert out == ""
    assert err == f"error: a verify worker ended without a result ({status})\n"


def test_verify_subprocess_matches_in_process(capsys, verify_workers):
    # a fresh interpreter forks its workers as a benchmark run does
    args = ["--cartan", "B3", "--delta", "id", "verify"]
    verify_workers(1)
    _, expected, _ = run_cli(capsys, *args)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "flagpieces", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout == expected


# verify on A4 with W = 2, where every per-J job in the worker logs its pid
# and sleeps 2 s, so the worker's share lasts about 16 s
_SLOW_WORKER = """
import os, sys, time
from flagpieces import cli, oracle

caller = os.getpid()

def slow(tc, J):
    if os.getpid() != caller:
        with open(sys.argv[1], "a") as log:
            log.write(f"{os.getpid()}\\n")
        time.sleep(2)
    return oracle.OracleReport("slow")

oracle.PER_SUBSET_CHECKS = (("slow", slow),)
oracle._worker_count = lambda jobs: 2
sys.exit(cli.main(["--cartan", "A4", "--delta", "id", "verify"]))
"""


def test_killed_verify_leaves_no_worker_running(tmp_path):
    # a supervisor that SIGKILLs verify and reads its output to EOF does not
    # wait for the worker, and the worker stops after the job it is in
    log = tmp_path / "jobs.log"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_WORKER, str(log)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    while not (log.exists() and log.read_text()):
        assert time.monotonic() < deadline and proc.poll() is None
        time.sleep(0.05)
    proc.kill()
    t0 = time.monotonic()
    out, _ = proc.communicate(timeout=60)
    assert time.monotonic() - t0 < 1
    assert out == b""
    time.sleep(2.5)  # the job the worker was in has ended
    started = log.read_text()
    time.sleep(2.5)  # more than one more job's time
    assert log.read_text() == started
    assert len(started.split()) < 8
