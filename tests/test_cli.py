import json
from importlib import resources

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
