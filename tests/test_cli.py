import hashlib
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
    from flagpieces.rootsys import parse_letters

    g = group_of("B2")
    code, out, _ = run_cli(capsys, "--cartan", "B2", "--delta", "id", "--j", "2", "pieces")
    assert code == 0
    for line in out.splitlines():
        if line.startswith("w="):
            word = line.split()[0][2:]
            g.from_word(parse_letters(g.rank, word))  # must not raise


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


# sha256 of `pieces` stdout; the E6 text digest is the e6-pieces benchmark's,
# and every digest equals that of the group-table path
PIECES_DIGESTS = {
    ("E6", "flip", "1,2,3,4,5", "text"): "483556a44323c0befb1aaab64c122635cf68cfbfadbf980c90e3757d0dfeb15d",
    ("E6", "flip", "1,2,3,4,5", "json"): "590f84c78700fec0b7a99e945fb5d1feb3fd37842e6dbe1aa540b98629119adc",
    ("E7", "id", "1,2,3,4,5,6", "text"): "0dff97bdc52434ca99b313daee7c303551d663ca0c78aab1f57ecbae7f22fb6c",
    ("E7", "id", "1,2,3,4,5,6", "json"): "b93a6b92d38d8753559c3e9f53351b1a7335cdb4a54dc42ad33b8219848c110a",
}


@pytest.fixture
def no_group_table(monkeypatch):
    """Make building a group table or a twisted action fail the test."""
    import flagpieces as fp

    def refuse(*args, **kwargs):
        raise AssertionError("built a group table")

    monkeypatch.setattr(fp.WeylGroup, "__init__", refuse)
    monkeypatch.setattr(fp.TwistedConjugation, "__init__", refuse)


@pytest.mark.parametrize("cartan,delta,j,fmt", sorted(PIECES_DIGESTS))
def test_pieces_builds_no_group_table(capsys, no_group_table, cartan, delta, j, fmt):
    code, out, err = run_cli(capsys, "--cartan", cartan, "--delta", delta, "--j", j, "--format", fmt, "pieces")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PIECES_DIGESTS[cartan, delta, j, fmt]


@pytest.mark.parametrize(
    "args,message",
    [
        (("--cartan", "A2", "--j", "7"), "subset index 7 out of range 1..2"),
        (("--cartan", "A2", "--w", "9"), "word letter 9 out of range 1..2"),
        (("--cartan", "A2", "--format", "dot"), "format 'dot' is only available for the poset command"),
        (
            ("--cartan", "E8", "--j", "9", "--w", "9"),
            "group of type E8 exceeds the element ceiling 3000000; "
            "pass a larger max_elements to enumerate it anyway",
        ),
    ],
)
def test_pieces_refusals_without_a_group(capsys, no_group_table, args, message):
    code, out, err = run_cli(capsys, *args, "pieces")
    assert (code, out, err) == (2, "", f"error: {message}\n")


_REFUSALS_BEFORE_THE_TABLE = [
    (("--j", "9"), "subset index 9 out of range 1..7"),
    (("--w", "9"), "word letter 9 out of range 1..7"),
    (("--delta", "tri"), "'tri' is only defined for type D4"),
    (
        ("--delta", "foo"),
        "cannot parse automorphism 'foo': expected 'id', 'flip', 'tri', 'tri2', "
        "or explicit images like '2,1,3'",
    ),
]


@pytest.mark.parametrize(
    "args,message",
    [
        (args + (command,), message)
        for command in ("orbits", "poset", "verify")
        for args, message in _REFUSALS_BEFORE_THE_TABLE
    ]
    + [
        (("--format", "dot", command), "format 'dot' is only available for the poset command")
        for command in ("orbits", "verify")
    ]
    + [((command,), f"the {command} command requires --w") for command in ("sequence", "closure")]
    + [
        (
            ("--j", "1,2,3,4,5,6", "--w", "1", "sequence"),
            "precondition violated: w = 1 is not a minimal coset representative "
            "for J = {1,2,3,4,5,6} (w must lie in W^J)",
        )
    ],
)
def test_refusals_before_the_group_table(capsys, no_group_table, args, message):
    # an argument error needs no group table, so E7 refuses it at once
    code, out, err = run_cli(capsys, "--cartan", "E7", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "delta,j,w,printed",
    [("flip", "1,3", "3,2,1,1,2,3,2,1", "2,1"), ("id", "2", "1,2,1,2,1,3,2", "2,3,2")],
)
def test_sequence_refusal_prints_the_reduced_word(capsys, no_group_table, delta, j, w, printed):
    # w is read on the root system: a word that is not reduced prints as the
    # lexicographically smallest reduced word of its product, as the
    # WeylElement of the group table would
    code, out, err = run_cli(capsys, "--cartan", "A3", "--delta", delta, "--j", j, "sequence", "--w", w)
    assert (code, out) == (2, "")
    assert err == (
        f"error: precondition violated: w = {printed} is not a minimal coset "
        f"representative for J = {{{j}}} (w must lie in W^J)\n"
    )


def test_out_of_memory_exits_2(capsys, monkeypatch):
    from flagpieces import pairs, weyl

    def exhausted(*args, **kwargs):
        raise MemoryError

    # pieces searches W_J and ^JW without a group table; the other commands
    # build the table
    monkeypatch.setattr(pairs, "_level_search", exhausted)
    monkeypatch.setattr(weyl, "WeylGroup", exhausted)
    for command in ("pieces", "orbits"):
        code, out, err = run_cli(capsys, "--cartan", "E7", "--delta", "id", command)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: out of memory building E7 for the {command} command")
        assert err.count("\n") == 1


def test_out_of_memory_names_the_canonical_label(capsys, monkeypatch):
    from flagpieces import weyl

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(weyl, "WeylGroup", exhausted)
    code, out, err = run_cli(capsys, "--cartan", "E07", "--delta", "id", "orbits")
    assert (code, out) == (2, "")
    assert err == "error: out of memory building E7 for the orbits command; try a smaller type\n"


@pytest.mark.parametrize("command,args", [("poset", ()), ("closure", ("--w", "7")), ("verify", ())])
def test_bruhat_table_over_physical_memory_exits_2(capsys, no_group_table, command, args):
    # the E7 table is |W|^2 / 8 bytes, about 1 TB; E6 needs 336 MB
    need = 2903040**2 // 8
    if need <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        pytest.skip("the E7 Bruhat table fits in physical memory here")
    code, out, err = run_cli(capsys, "--cartan", "E7", "--delta", "id", "--j", "1,2,3,4,5,6", *args, command)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the {command} command needs the 981.1 GiB Bruhat table of E7, ")
    assert err.endswith(" GiB of physical memory\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["orbits", "sequence", "verify"])
def test_group_table_over_physical_memory_exits_2(capsys, monkeypatch, no_group_table, command):
    # 20,480 bytes of physical memory: the B4 group table (384 x 4 x 4 bytes)
    # and its Bruhat table (384^2 / 8) fit, the D5 group table (1920 x 5 x 4)
    # does not; at 4,096 bytes the B4 group table does not either
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 5}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    code, out, err = run_cli(capsys, "--cartan", "D5", "--w", "e", command)
    assert (code, out) == (2, "")
    assert err == (
        f"error: the {command} command needs the 0.0 GiB group table of D5, "
        "more than the 0.0 GiB of physical memory\n"
    )
    sizes["SC_PHYS_PAGES"] = 1
    code, out, err = run_cli(capsys, "--cartan", "B4", "--w", "e", command)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: the {command} command needs the 0.0 GiB group table of B4, ")


def test_e8_group_table_over_physical_memory_exits_2(capsys, no_group_table):
    # a raised ceiling lets E8 past check_ceiling; its group table is
    # 696,729,600 x 8 x 4 bytes, about 21 GB, and is refused before it is built
    if 696729600 * 8 * 4 <= os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        pytest.skip("the E8 group table fits in physical memory here")
    code, out, err = run_cli(capsys, "--cartan", "E8", "--max-elements", "700000000", "orbits")
    assert (code, out) == (2, "")
    assert err.startswith("error: the orbits command needs the 20.8 GiB group table of E8, ")
    assert err.count("\n") == 1


def test_group_table_within_physical_memory_is_built(capsys, monkeypatch):
    sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 5}
    monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
    code, out, err = run_cli(capsys, "--cartan", "B4", "orbits")
    assert (code, err) == (0, "")
    assert out.startswith("# cartan=B4 delta=id J=- orbits=384\n")


@pytest.mark.parametrize("command,fmt", [("pieces", "text"), ("poset", "json"), ("orbits", "text")])
def test_dash_is_the_empty_subset(capsys, command, fmt):
    # headers print an empty J as J=-, and --j reads it back
    runs = [
        run_cli(capsys, "--cartan", "A3", "--delta", "flip", "--j", j, "--format", fmt, command)
        for j in ("-", "", " - ")
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spelling,label", [("A03", "A3"), (" E6", "E6"), ("E06", "E6")])
def test_pieces_prints_the_canonical_label(capsys, spelling, label, fmt):
    runs = [
        run_cli(capsys, "--cartan", cartan, "--delta", "flip", "--j", "1", "--format", fmt, "pieces")
        for cartan in (spelling, label)
    ]
    assert runs[0][0] == 0
    assert runs[0] == runs[1]
    assert (f"# cartan={label} " if fmt == "text" else f'"cartan": "{label}"') in runs[0][1]


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


def _plant_in_worker(monkeypatch, handshake, action):
    """Make every per-J check run `action` in a worker process and pass in
    this one once a worker has started a per-J job, so that a worker runs
    one whichever jobs this process pulls."""
    from flagpieces import oracle

    parent = os.getpid()

    def check(tc, J):
        if os.getpid() != parent:
            handshake.started()
            action()
        else:
            handshake.wait()
        return oracle.OracleReport("planted")

    monkeypatch.setattr(oracle, "PER_SUBSET_CHECKS", (("planted", check),))


def test_worker_out_of_memory_exits_2(capsys, monkeypatch, verify_workers, worker_handshake):
    def exhausted():
        raise MemoryError

    _plant_in_worker(monkeypatch, worker_handshake, exhausted)
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
def test_worker_death_exits_2(capsys, monkeypatch, verify_workers, worker_handshake, end, status):
    _plant_in_worker(monkeypatch, worker_handshake, end)
    verify_workers(2)
    code, out, err = run_cli(capsys, "--cartan", "A2", "--delta", "id", "verify")
    assert code == 2
    assert out == ""
    assert err == f"error: a verify worker ended without a result ({status})\n"


@pytest.mark.parametrize("cartan,delta", [("B3", "id"), ("D4", "tri")])
def test_verify_subprocess_matches_in_process(capsys, verify_workers, cartan, delta):
    # a fresh interpreter forks its workers and fills their job queue as a
    # benchmark run does
    args = ["--cartan", cartan, "--delta", delta, "verify"]
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


@pytest.mark.parametrize(
    "args",
    [
        ("--cartan", "A3", "--delta", "flip", "--j", "1", "pieces"),
        ("--cartan", "A2", "--delta", "id", "verify"),
        ("--cartan", "A3", "--j", "9", "pieces"),
    ],
)
def test_entry_point_matches_in_process(capsys, args):
    # `python -m flagpieces` runs cli.main, then skips the exit-time collection
    expected = run_cli(capsys, *args)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "flagpieces", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert expected[0] == (2 if "9" in args else 0)


# verify on A4 with W = 2, where every per-J job sleeps 2 s and, in the
# worker, first logs its pid: the caller pulls one job per 2 s as well, so
# the worker runs per-J jobs and some are left in the queue when the caller
# is killed
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
