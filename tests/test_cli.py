import json
import re

import pytest

from latcirc import circuit, cli, gate
from latcirc import order_core as oc

N5 = {
    "elements": ["0", "a", "b", "c", "1"],
    "covers": [["0", "a"], ["a", "1"], ["0", "b"], ["b", "c"], ["c", "1"]],
}
V_SEMI = {"elements": ["0", "a", "b"], "covers": [["0", "a"], ["0", "b"]]}
CHAIN2 = {"elements": ["0", "1"], "covers": [["0", "1"]]}
NO_MEET = {"elements": ["x", "y"], "covers": []}
M3 = {
    "elements": ["0", "p", "q", "r", "1"],
    "covers": [["0", "p"], ["0", "q"], ["0", "r"], ["p", "1"], ["q", "1"], ["r", "1"]],
}


def _lattice_json(lat) -> str:
    return json.dumps(
        {
            "elements": list(lat.elements),
            "covers": [[lat.elements[i], lat.elements[j]] for i, j in lat.poset.covers()],
        }
    )


@pytest.fixture
def n5_file(tmp_path):
    p = tmp_path / "n5.json"
    p.write_text(json.dumps(N5))
    return str(p)


@pytest.fixture
def v_file(tmp_path):
    p = tmp_path / "v.json"
    p.write_text(json.dumps(V_SEMI))
    return str(p)


def run(capsys, *argv):
    code, rep, _ = run_err(capsys, *argv)
    return code, rep


def run_err(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestVerifyLattice:
    def test_n5_full(self, capsys, n5_file):
        code, rep = run(capsys, "verify-lattice", n5_file)
        assert code == 0 and rep["verdict"] == "pass"
        assert rep["results"]["definables"] == 5
        assert rep["results"]["gates"] == 52

    def test_n5_minimal(self, capsys, n5_file):
        code, rep = run(capsys, "verify-lattice", n5_file, "--presentation", "minimal")
        assert code == 0 and rep["results"]["gates"] == 4

    def test_chain_with_oracle(self, capsys, tmp_path):
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(CHAIN2))
        code, rep = run(capsys, "verify-lattice", str(p), "--oracle", "4")
        assert code == 0
        assert rep["results"]["oracle"]["agrees"]

    def test_gateless_minimal_chain_with_oracle(self, capsys, tmp_path):
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(CHAIN2))
        code, rep = run(
            capsys, "verify-lattice", str(p), "--presentation", "minimal", "--oracle", "4"
        )
        assert code == 0 and rep["verdict"] == "pass"
        assert rep["results"]["gates"] == 0
        assert rep["results"]["oracle"] == {"n": 4, "definables": 2, "agrees": True}

    @pytest.mark.parametrize("presentation", ["full", "minimal"])
    @pytest.mark.parametrize("data", [N5, M3], ids=["n5", "m3"])
    def test_five_elements_with_oracle(self, capsys, tmp_path, data, presentation):
        p = tmp_path / "l5.json"
        p.write_text(json.dumps(data))
        code, rep = run(
            capsys, "verify-lattice", str(p), "--presentation", presentation, "--oracle", "4"
        )
        assert code == 0 and rep["verdict"] == "pass"
        assert rep["results"]["oracle"] == {"n": 4, "definables": 5, "agrees": True}

    @pytest.mark.parametrize(
        "k", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_corpus_full_with_oracle(self, capsys, tmp_path, k):
        for lat in oc.all_lattices_up_to_iso(k):
            p = tmp_path / "lat.json"
            p.write_text(_lattice_json(lat))
            code, rep = run(capsys, "verify-lattice", str(p), "--oracle", "4")
            assert code == 0 and rep["verdict"] == "pass", lat.poset.up
            assert rep["results"]["oracle"] == {"n": 4, "definables": k, "agrees": True}

    def test_oracle_runs_brute_force_on_single_gates_only(self, capsys, n5_file, monkeypatch):
        seen = []
        real = gate.oracle

        def one_gate_only(dc, *args, **kwargs):
            seen.append(len(dc.copies))
            return real(dc, *args, **kwargs)

        monkeypatch.setattr(gate, "oracle", one_gate_only)
        code, _ = run(capsys, "verify-lattice", n5_file, "--oracle", "4")
        # N5's full circuit uses all five ways a gate can name its nodes,
        # and every gate is glued from one search of the plain gate
        assert code == 0 and seen == [1]

    @pytest.mark.parametrize("presentation", ["full", "minimal"])
    def test_assignments_enumerated_once(self, capsys, n5_file, monkeypatch, presentation):
        calls = []
        real = circuit.definable_assignments

        def counted(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(circuit, "definable_assignments", counted)
        code, rep = run(
            capsys, "verify-lattice", n5_file, "--presentation", presentation, "--oracle", "4"
        )
        assert code == 0 and rep["results"]["definables"] == 5
        assert len(calls) == 1

    def test_oracle_budget_exits_2(self, capsys, n5_file):
        code, rep, err = run_err(
            capsys, "--max-candidates", "10", "verify-lattice", n5_file, "--oracle", "4"
        )
        assert code == 2 and "budget of 10" in rep["error"]
        assert err.count("\n") == 1

    def test_meetless_input_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(NO_MEET))
        code, rep = run(capsys, "verify-lattice", str(p))
        assert code == 2
        assert rep["verdict"] == "error"
        assert "'x'" in rep["error"] and "'y'" in rep["error"]

    def test_missing_file_exits_2(self, capsys):
        code, rep = run(capsys, "verify-lattice", "/nonexistent.json")
        assert code == 2

    def test_oracle_without_thresholds_exits_2(self, capsys, tmp_path):
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(CHAIN2))
        code, rep, err = run_err(capsys, "verify-lattice", str(p), "--oracle", "2")
        assert code == 2 and rep["verdict"] == "error"
        assert "--oracle 3" in rep["error"]
        assert err.count("\n") == 1


class TestMalformedLattice:
    @pytest.mark.parametrize(
        "data", [{"elements": 5}, {"elements": [["x"]]}, {"elements": []}]
    )
    @pytest.mark.parametrize(
        "command", ["verify-lattice", "filters", "filters --as-lattice", "y0 --k 0"]
    )
    def test_exits_2_with_one_line(self, capsys, tmp_path, command, data):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        name, *flags = command.split()
        code, rep, err = run_err(capsys, name, str(p), *flags)
        assert code == 2 and rep["verdict"] == "error"
        assert "'elements'" in rep["error"]
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command", ["verify-lattice", "filters", "y0 --k 1", "export-dot hasse"]
    )
    def test_deep_nesting_exits_2_with_one_line(self, capsys, tmp_path, command):
        p = tmp_path / "deep.json"
        p.write_text('{"elements": ' + "[" * 200_000)
        name, *rest = command.split()
        if name == "export-dot":
            argv = [name, *rest, str(p), "-o", str(tmp_path / "out.dot")]
        else:
            argv = [name, str(p), *rest]
        code, rep, err = run_err(capsys, *argv)
        assert code == 2 and rep["verdict"] == "error"
        assert "nesting too deep" in rep["error"]
        assert err.count("\n") == 1

    def test_malformed_pairs(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"elements": ["x"], "covers": [[["x"], "x"]]}))
        code, rep, _ = run_err(capsys, "verify-lattice", str(p))
        assert code == 2 and "'covers'" in rep["error"]


class TestGateOracle:
    def test_plain_n4(self, capsys):
        code, rep = run(capsys, "gate-oracle", "--n", "4")
        assert code == 0
        assert rep["results"]["definables"] == 7
        assert rep["results"]["patterns"] == rep["results"]["expected"]

    def test_dagger(self, capsys):
        code, rep = run(capsys, "gate-oracle", "--variant", "dagger", "--n", "4")
        assert code == 0 and rep["results"]["definables"] == 3

    def test_n1_exits_2(self, capsys):
        code, rep = run(capsys, "gate-oracle", "--n", "1")
        assert code == 2

    def test_n2_default_floor_exits_2(self, capsys):
        code, rep, err = run_err(capsys, "gate-oracle", "--n", "2")
        assert code == 2 and rep["verdict"] == "error"
        assert "--r-min" in rep["error"]
        assert err.count("\n") == 1

    def test_floor_refused_before_budget(self, capsys):
        code, rep = run(capsys, "--max-candidates", "10", "gate-oracle", "--n", "2")
        assert code == 2 and "--r-min" in rep["error"]

    def test_n2_with_smaller_floor(self, capsys):
        code, rep = run(capsys, "gate-oracle", "--n", "2", "--r-min", "1/4")
        assert code == 0 and rep["results"]["definables"] == 7

    def test_floor_above_every_threshold_exits_2(self, capsys):
        code, rep = run(capsys, "gate-oracle", "--n", "4", "--r-min", "1")
        assert code == 2 and "--r-min" in rep["error"]

    def test_negative_probes_exits_2(self, capsys):
        code, rep, err = run_err(capsys, "gate-oracle", "--n", "4", "--probes", "-3")
        assert code == 2 and rep["verdict"] == "error"
        assert "--probes" in rep["error"]
        assert err.count("\n") == 1

    def test_probes_clean(self, capsys):
        code, rep = run(
            capsys, "gate-oracle", "--n", "3", "--probes", "25", "--seed", "1"
        )
        assert code == 0
        assert rep["results"]["probes"]["unexpected_definable"] == []


class TestTower:
    def test_forward_six(self, capsys):
        code, rep = run(capsys, "tower", "--kind", "forward", "--n", "6")
        assert code == 0 and rep["results"]["definables"] == 8

    def test_reverse_six(self, capsys):
        code, rep = run(capsys, "tower", "--kind", "reverse", "--n", "6")
        assert code == 0 and rep["results"]["definables"] == 8

    def test_exact_pair_limit(self, capsys):
        code, rep = run(capsys, "tower", "--kind", "exact-pair", "--n", "5", "--limit")
        assert code == 0
        limit = rep["results"]["limit"]
        assert limit["meet_exists"] is False
        assert limit["lower_bounds_have_maximum"] is False
        assert limit["contains_infinity"]["top"] is True
        assert limit["contains_infinity"]["D_1"] is False

    def test_zero_exits_2(self, capsys):
        code, _ = run(capsys, "tower", "--n", "0")
        assert code == 2


class TestFilters:
    def test_v_as_lattice(self, capsys, v_file):
        code, rep = run(capsys, "filters", v_file, "--include-empty", "--as-lattice")
        assert code == 0 and rep["results"]["count"] == 4
        lattice = rep["results"]["lattice"]
        assert lattice["bottom"] == "{}" and len(lattice["covers"]) == 4

    def test_two_chain(self, capsys, tmp_path):
        p = tmp_path / "c2.json"
        p.write_text(json.dumps(CHAIN2))
        code, rep = run(capsys, "filters", str(p))
        assert code == 0 and rep["results"]["count"] == 2


    def test_covers_and_leq_together_exit_2(self, capsys, tmp_path):
        p = tmp_path / "both.json"
        p.write_text(json.dumps({"elements": ["a", "b"], "covers": [], "leq": [["a", "b"]]}))
        code, rep, err = run_err(capsys, "filters", str(p))
        assert code == 2 and rep["verdict"] == "error"
        assert "not both" in rep["error"]
        assert err.count("\n") == 1

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        p = tmp_path / "typo.json"
        p.write_text(json.dumps({"elements": ["a", "b"], "cover": [["a", "b"]]}))
        code, rep, err = run_err(capsys, "filters", str(p))
        assert code == 2 and rep["verdict"] == "error"
        assert "unknown key(s) 'cover'" in rep["error"]
        assert err.count("\n") == 1


class TestY0:
    def test_v_k3(self, capsys, v_file):
        code, rep = run(capsys, "y0", v_file, "--k", "3")
        assert code == 0 and rep["results"]["match"]
        assert rep["results"]["assignments"] == 4


class TestExportDot:
    def test_n5_hasse(self, capsys, n5_file, tmp_path):
        out = str(tmp_path / "n5.dot")
        code, rep = run(capsys, "export-dot", "hasse", n5_file, "-o", out)
        assert code == 0
        assert rep["results"]["nodes"] == 5 and rep["results"]["edges"] == 5
        text = open(out).read()
        assert text.count("->") == 5

    def test_circuit_dot(self, capsys, n5_file, tmp_path):
        out = str(tmp_path / "c.dot")
        code, rep = run(capsys, "export-dot", "circuit", n5_file, "-o", out)
        assert code == 0 and rep["results"]["edges"] == 4
        assert "AND" in open(out).read()

    @pytest.mark.parametrize(
        "what,names",
        [("hasse", ['"a\\"b"', '"c\\\\"']), ("circuit", ['"x_a\\"b"', '"x_c\\\\"'])],
    )
    def test_labels_with_quote_and_backslash_are_escaped(self, capsys, tmp_path, what, names):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps(
            {"elements": ["0", 'a"b', "c\\", "1"],
             "covers": [["0", 'a"b'], ['a"b', "c\\"], ["c\\", "1"]]}
        ))
        out = tmp_path / "odd.dot"
        code, _ = run(capsys, "export-dot", what, str(p), "-o", str(out))
        assert code == 0
        text = out.read_text()
        for name in names:
            assert name in text
        for line in text.splitlines():
            # every quote and backslash sits inside a whole quoted string
            rest = re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
            assert '"' not in rest and "\\" not in rest, line

    @pytest.mark.parametrize("what", ["hasse", "circuit"])
    @pytest.mark.parametrize("where", ["missing/x.dot", "."])
    def test_unwritable_output_exits_2(self, capsys, n5_file, tmp_path, what, where):
        out = str(tmp_path / where)
        code, rep, err = run_err(capsys, "export-dot", what, n5_file, "-o", out)
        assert code == 2 and rep["verdict"] == "error"
        assert rep["error"].startswith(f"cannot write {out}")
        assert err.count("\n") == 1


class TestDeterminism:
    def _strip_timing(self, rep):
        rep = dict(rep)
        rep.pop("timing_ms", None)
        return rep

    def test_reports_byte_identical_modulo_timing(self, capsys, n5_file):
        _, rep1 = run(capsys, "verify-lattice", n5_file, "--presentation", "minimal")
        _, rep2 = run(capsys, "verify-lattice", n5_file, "--presentation", "minimal")
        assert json.dumps(self._strip_timing(rep1), sort_keys=True) == json.dumps(
            self._strip_timing(rep2), sort_keys=True
        )

    def test_gate_oracle_deterministic(self, capsys):
        _, rep1 = run(capsys, "gate-oracle", "--n", "3", "--probes", "10")
        _, rep2 = run(capsys, "gate-oracle", "--n", "3", "--probes", "10")
        assert self._strip_timing(rep1) == self._strip_timing(rep2)
