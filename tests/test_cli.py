"""Command-line contract: exit codes, formats, piping."""

import json

import pytest

from opra.cli import main
from opra.graph import graph_from_dict, load_graph, save_graph
from opra.parser import parse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def q1_file(corpus_dir):
    return str(corpus_dir / "q1.opra")


class TestEval:
    def test_demo_q1_contains_sp(self, capsys, q1_file):
        code, out, _ = run(capsys, "eval", "--demo", q1_file)
        assert code == 0
        assert "(S, P)" in out

    def test_json_versioned(self, capsys, q1_file):
        code, out, _ = run(capsys, "eval", "--demo", q1_file, "--json")
        doc = json.loads(out)
        assert code == 0 and doc["version"] == 1
        assert ["S", "P"] in [a["nodes"] for a in doc["answers"]]

    def test_short_witness_cap_inconclusive(self, capsys, q1_file):
        code, out, _ = run(capsys, "eval", "--demo", q1_file,
                           "--max-witness-len", "3")
        assert code == 1

    def test_malformed_graph_exit_2(self, capsys, tmp_path, q1_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "eval", str(bad), q1_file)
        assert code == 2 and "error" in err

    def test_empty_result_exit_0(self, capsys, tmp_path, corpus_dir):
        q = tmp_path / "never.opra"
        q.write_text("LET One(x) := 1 IN SELECT NODES x "
                     "SUCH THAT x -[p]-> x : E HAVING One[p] <= -1")
        code, out, _ = run(capsys, "eval", "--demo", str(q))
        assert code == 0 and "(no answers)" in out


class TestCheck:
    def test_corpus_agreement(self, capsys, corpus_dir):
        for name in ("q1", "q3", "q6", "q_cycle"):
            code, out, _ = run(capsys, "check", "--demo",
                               str(corpus_dir / f"{name}.opra"),
                               "--oracle-len", "8")
            assert "DISAGREE" not in out, (name, out)

    def test_truncated_oracle_unknown(self, capsys, q1_file):
        # length-4 enumeration cannot reproduce the length-7 witnesses
        code, out, _ = run(capsys, "check", "--demo", q1_file,
                           "--oracle-len", "4")
        assert code == 1
        assert "UNKNOWN" in out
        assert "DISAGREE" not in out

    def test_empty_graph_agrees(self, capsys, tmp_path, q1_file):
        g = tmp_path / "empty.json"
        g.write_text(json.dumps({"nodes": [], "labellings": [
            {"name": "E", "arity": 2, "default": 0, "entries": []},
            {"name": "time", "arity": 1, "default": 0, "entries": []},
            {"name": "attr", "arity": 1, "default": 0, "entries": []},
            {"name": "type", "arity": 1, "default": 0, "entries": []}]}))
        code, out, _ = run(capsys, "check", str(g), q1_file)
        assert code == 0 and "AGREE" in out


class TestRuntimeErrors:
    def test_undefined_infinite_sum_exit_2(self, capsys, tmp_path):
        g = tmp_path / "inf.json"
        g.write_text(json.dumps({"nodes": ["a", "b"], "labellings": [
            {"name": "E", "arity": 2, "default": 0,
             "entries": [[["a", "b"], 1]]},
            {"name": "u", "arity": 1, "default": 0,
             "entries": [[["a"], "+inf"]]},
            {"name": "w", "arity": 1, "default": 0,
             "entries": [[["a"], "+inf"]]}]}))
        q = tmp_path / "q.opra"
        q.write_text("SELECT NODES x, y SUCH THAT x -[pi]-> y : E "
                     "HAVING u[pi] - w[pi] <= 0")
        for command in ("eval", "check"):
            code, _, err = run(capsys, command, str(g), str(q))
            assert code == 2, command
            assert err.count("\n") == 1 and "UndefinedInfinitySum" in err


class TestAlgebra:
    def test_complement_free_paths_exit_4(self, capsys, tmp_path):
        q = tmp_path / "paths.opra"
        q.write_text("SELECT PATHS p SUCH THAT x -[p]-> y : E")
        code, _, err = run(capsys, "algebra", "complement", str(q))
        assert code == 4

    def test_project_keep_all(self, capsys, tmp_path, q1_file):
        code, out, _ = run(capsys, "algebra", "project", q1_file,
                           "--keep-nodes", "x,y")
        assert code == 0
        assert parse(out) == parse(open(q1_file).read())

    def test_ham_pipe_on_three_cycle(self, capsys, tmp_path):
        g = tmp_path / "cyc.json"
        g.write_text(json.dumps({"nodes": ["a", "b", "c"], "labellings": [
            {"name": "E", "arity": 2, "default": 0,
             "entries": [[["a", "b"], 1], [["b", "c"], 1], [["c", "a"], 1]]}]}))
        code, out, _ = run(capsys, "algebra", "ham", "--graph", str(g))
        assert code == 0
        q = tmp_path / "ham.opra"
        q.write_text(out)
        code, out, _ = run(capsys, "eval", str(g), str(q))
        assert code == 0 and "()" in out

    def test_dag_emits_query(self, capsys, tmp_path):
        code, out, _ = run(capsys, "algebra", "dag")
        assert code == 0
        parse(out)

    def test_signature_mismatch_exit_2(self, capsys, tmp_path, q1_file):
        other = tmp_path / "other.opra"
        other.write_text("SELECT NODES a SUCH THAT a -[p]-> a : E")
        code, _, _ = run(capsys, "algebra", "intersect", q1_file, str(other))
        assert code == 2


class TestTranslateAndEmbed:
    RDPA = """
registers 0
word W1
data D0
initial D0
final W1
dtrans D0 true {} W1
wtrans W1 a D0
"""

    def test_translate_rdpa_roundtrips(self, capsys, tmp_path):
        f = tmp_path / "m.rdpa"
        f.write_text(self.RDPA)
        code, out, _ = run(capsys, "translate", "rdpa", str(f))
        assert code == 0
        q = parse(out)
        assert q.select_nodes == ("x", "y")

    def test_translate_pipe_eval(self, capsys, tmp_path):
        f = tmp_path / "m.rdpa"
        f.write_text(self.RDPA)
        code, qtext, _ = run(capsys, "translate", "rdpa", str(f))
        dg = tmp_path / "data.json"
        dg.write_text(json.dumps({
            "nodes": ["u", "v"], "edges": [["u", "a", "v"]],
            "data": {"u": 1, "v": 2}}))
        code, gtext, _ = run(capsys, "embed", "data", str(dg))
        assert code == 0
        gfile = tmp_path / "embedded.json"
        gfile.write_text(gtext)
        qfile = tmp_path / "q.opra"
        qfile.write_text(qtext)
        code, out, _ = run(capsys, "eval", str(gfile), str(qfile))
        assert code == 0
        assert "(u, v)" in out  # the a-labelled edge is accepted

    def test_translate_parse_error_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.rdpa"
        f.write_text("nonsense")
        code, _, _ = run(capsys, "translate", "rdpa", str(f))
        assert code == 2

    def test_dnf_guard_exit_3(self, capsys, tmp_path):
        lines = ["registers 2", "word W", "data D", "initial D", "final W"]
        big = "and(" + ",".join(
            f"or(x1=,z={i})" for i in range(10)) + ")"
        lines.append(f"dtrans D {big} {{}} W")
        f = tmp_path / "big.rdpa"
        f.write_text("\n".join(lines))
        code, _, _ = run(capsys, "translate", "rdpa", str(f), "--dnf-limit", "8")
        assert code == 3


class TestGraphRoundTrip:
    def test_load_save_identity(self, tmp_path, map_graph):
        out = tmp_path / "map.json"
        save_graph(map_graph, out)
        g2 = load_graph(out)
        assert set(g2.real_nodes) == set(map_graph.real_nodes)
        assert g2.schema() == map_graph.schema()
        for name, lab in map_graph.labellings.items():
            assert g2.labellings[name].entries == lab.entries
