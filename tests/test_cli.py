import json

import pytest

from histspec import complete, encode_graph6, family_L
from histspec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rho_family_shorthand(capsys):
    code, out, _ = run(capsys, "rho", "family:K:5")
    assert code == 0
    assert out.startswith("rho=4.0000000000")


def test_rho_structured(capsys):
    code, out, _ = run(capsys, "--format", "structured", "rho", "family:Kpq:2:8")
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == pytest.approx(4.0, abs=1e-9)
    assert payload["n"] == 10


def test_rho_graph6_input(capsys):
    code, out, _ = run(capsys, "rho", encode_graph6(complete(4)))
    assert code == 0 and "rho=3.0000000000" in out


def test_hist_family_b(capsys):
    code, out, _ = run(capsys, "hist", "family:B:8")
    assert code == 0
    assert "no HIST" in out and "chain" in out


def test_hist_found(capsys):
    code, out, _ = run(capsys, "hist", "family:K:4")
    assert code == 0 and out.startswith("HIST found")


def test_hist_k2q_settled_by_degree2_leaves(capsys):
    code, out, _ = run(capsys, "hist", "family:Kpq:2:40")
    assert code == 0 and out == "no HIST: exhausted search space\n"
    code, out, _ = run(capsys, "--format", "structured", "hist", "family:Kpq:2:40")
    assert code == 0 and json.loads(out)["certificate"] == "exhausted_search"


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "L", "7")
    assert code == 0
    assert "(1.0, -3.0, -6.0, 6.0, 4.0)" in out
    assert "4.054795" in out


def test_family_prints_graph6(capsys):
    code, out, _ = run(capsys, "family", "L", "7")
    assert code == 0
    assert out.strip() == encode_graph6(family_L(7))
    code, out, _ = run(capsys, "family", "Kpq", "2", "8")
    assert code == 0


def test_verify_certificates(capsys):
    code, out, _ = run(capsys, "verify", "certificates", "--nmax", "4")
    assert code == 0
    assert "soundness violations  0" in out
    code, _, err = run(capsys, "verify", "certificates", "--nmax", "9")
    assert code == 2
    assert "3 <= n_max <= 8" in err


def test_verify_corollaries(capsys):
    code, out, _ = run(capsys, "--format", "structured", "verify", "corollaries",
                       "--from", "7", "--to", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0


def test_verify_thm1_subsampled(capsys):
    code, out, _ = run(capsys, "verify", "thm1", "--n", "7")
    assert code == 0
    assert "counterexamples      0" in out


def test_verify_audit(capsys):
    code, out, _ = run(capsys, "verify", "audit", "--n", "7", "--theorem", "thm1")
    assert code == 0
    assert "discrepancies=0" in out


def test_convert_roundtrip(tmp_path, capsys):
    path = tmp_path / "c.g6"
    path.write_text(">>graph6<<A_\nC~\n\nD??\n")
    code, out, _ = run(capsys, "convert", str(path))
    assert code == 0
    assert "3 records" in out


def test_convert_format_error_exit3(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\n~oops\n")
    code, _, err = run(capsys, "convert", str(path))
    assert code == 3
    assert "line 2" in err


def test_non_ascii_byte_exit3(tmp_path, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(encode_graph6(family_L(9)).encode() + b"\nD?\xff\n")
    for argv in (("convert", str(path)), ("verify", "thm1", "--n", "9", "--corpus", str(path))):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "byte 255" in err and "line 2, byte 2" in err


def test_header_after_first_line_exit3(tmp_path, capsys):
    # The header is accepted once, at the start of the stream; on a later
    # line its first byte ">" (62) is a bad record byte.
    path = tmp_path / "twice.g6"
    path.write_text(">>graph6<<Bw\n>>graph6<<Bw\n")
    code, _, err = run(capsys, "convert", str(path))
    assert code == 3
    assert "byte 62 outside printable range 63..126 (line 2, byte 0)" in err


def test_format_error_exit3(capsys):
    code, _, err = run(capsys, "hist", "\x01bad")
    assert code == 3


def test_usage_error_exit2(capsys):
    code, _, _ = run(capsys, "nonsense-subcommand")
    assert code == 2
    code, _, _ = run(capsys, "verify", "thm1")  # missing --n
    assert code == 2
    code, _, err = run(capsys, "family", "L", "3")  # below validity range
    assert code == 2


def test_bad_verify_options_exit2(capsys):
    code, _, _ = run(capsys, "verify", "audit", "--n", "0", "--theorem", "thm1")
    assert code == 2
    code, _, err = run(capsys, "verify", "thm1", "--n", "7", "--corpus", "")
    assert code == 2 and "corpus source needs a corpus path" in err
    for what in ("thm1", "thm2"):
        code, _, err = run(capsys, "verify", what, "--n", "7", "--theorem", "thm2")
        assert code == 2 and "--theorem" in err


# Every verify option with a well-formed value, and the options each target
# reads.  No target reads --threads or --subsample, so every target must
# reject them.
VERIFY_OPTIONS = {"--n": "7", "--corpus": "corpus.g6", "--threads": "2", "--subsample": "4",
                  "--from": "7", "--to": "8", "--nmax": "4", "--theorem": "thm1"}
VERIFY_TARGETS = {
    "thm1": ("--n", "--corpus"),
    "thm2": ("--n", "--corpus"),
    "corollaries": ("--from", "--to"),
    "certificates": ("--nmax",),
    "audit": ("--n", "--theorem"),
}


def test_verify_rejects_options_its_target_does_not_read(capsys):
    for what, reads in VERIFY_TARGETS.items():
        required = ("--n", "7") if what in ("thm1", "thm2") else ()
        for opt, value in VERIFY_OPTIONS.items():
            if opt in reads:
                continue
            code, out, err = run(capsys, "verify", what, *required, opt, value)
            assert code == 2 and out == "", (what, opt)
            assert f"unrecognized arguments: {opt} {value}" in err, (what, opt)


def test_verify_audit_defaults(capsys, monkeypatch):
    from histspec import verification

    calls = []

    def fake(n, **kw):
        calls.append((n, kw))
        return verification.AuditReport(kw["theorem"], n, 0, 0, 0, 0, 0, 0.0)

    monkeypatch.setattr(verification, "audit_prescreens", fake)
    code, out, _ = run(capsys, "verify", "audit")
    assert code == 0 and out.startswith("prescreen audit n=8:")
    assert calls == [(8, {"theorem": "thm2"})]


def test_nonconvergence_exit4(capsys):
    code, _, err = run(capsys, "rho", "family:P:4", "--max-iter", "2",
                       "--tol", "1e-13")
    assert code == 4
    assert "numeric" in err


@pytest.mark.parametrize("argv", [("family:K:4", "--max-iter", "-1"),
                                  ("family:K:4", "--tol", "nan"),
                                  ("family:P:4", "--tol", "inf")])
def test_bad_power_iteration_settings_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, "rho", *argv)
    assert code == 2
    assert out == "" and err.startswith("error:") and len(err.splitlines()) == 1


def test_missing_corpus_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "thm2", "--n", "9")
    assert code == 2


def test_counterexample_exit1(capsys, monkeypatch):
    # No real counterexamples exist, so fake a failing report to check the
    # exit-code wiring.
    from histspec import verification
    from histspec.cli import main as cli_main

    real = verification.verify_theorem1

    def fake(n, **kw):
        rep = real(n, **kw)
        rep.counterexamples.append(["C~", 1])
        rep.over_threshold += 1
        return rep

    monkeypatch.setattr(verification, "verify_theorem1", fake)
    code = cli_main(["verify", "thm1", "--n", "7"])
    capsys.readouterr()
    assert code == 1


def test_search_budget_exit5(capsys, monkeypatch):
    from histspec import cli
    from histspec.hist import SearchBudgetError

    def exhausted(g):
        raise SearchBudgetError("HIST search exceeded budget of 1 nodes")

    monkeypatch.setattr(cli, "find_hist", exhausted)
    code, out, err = run(capsys, "hist", "family:K:4")
    assert code == cli.EXIT_BUDGET == 5
    assert out == "" and "budget" in err and len(err.splitlines()) == 1
