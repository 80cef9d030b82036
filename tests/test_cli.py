import json
import random

import pytest

from transversal import cli, core, matroids


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def fam3(tmp_path):
    return write(
        tmp_path,
        "fam3.json",
        {"ground": ["1", "2", "3"], "sets": [["1", "2"], ["2", "3"], ["3", "1"]]},
    )


@pytest.fixture
def fam_bad(tmp_path):
    return write(tmp_path, "bad.json", {"ground": ["1"], "sets": [["1"], ["1"]]})


class TestSdrCommand:
    def test_found(self, capsys, fam3):
        code, env, _ = run(capsys, "sdr", fam3)
        assert code == 0 and env["status"] == "found"
        assert sorted(env["payload"]["reps"]) == ["1", "2", "3"]

    def test_not_found_with_certificate(self, capsys, fam_bad):
        code, env, _ = run(capsys, "sdr", fam_bad)
        assert code == 1 and env["status"] == "not-found"
        assert env["payload"] == {"indices": [0, 1], "union": ["1"]}

    def test_verify_round_trip(self, capsys, tmp_path, fam3, fam_bad):
        for path, expect in ((fam3, 0), (fam_bad, 1)):
            code, env, _ = run(capsys, "sdr", path)
            cert = write(tmp_path, "cert.json", env["payload"])
            code, env, _ = run(capsys, "sdr", path, "--verify", cert)
            assert code == 0 and env["payload"]["valid"] is True

    def test_verify_rejects_forged(self, capsys, tmp_path, fam3):
        cert = write(tmp_path, "forged.json", {"reps": ["1", "1", "3"]})
        code, env, _ = run(capsys, "sdr", fam3, "--verify", cert)
        assert code == 1 and env["payload"]["valid"] is False

    def test_schema_violation_names_field(self, capsys, tmp_path):
        path = write(tmp_path, "junk.json", {"sets": []})
        code, env, err = run(capsys, "sdr", path)
        assert code == 2 and env["status"] == "invalid-input"
        assert "ground" in env["diagnostics"]
        assert err.strip() != ""

    def test_unreadable_file(self, capsys, tmp_path):
        code, env, _ = run(capsys, "sdr", str(tmp_path / "missing.json"))
        assert code == 2

    def test_element_outside_ground(self, capsys, tmp_path):
        path = write(tmp_path, "oops.json", {"ground": ["1"], "sets": [["7"]]})
        code, env, _ = run(capsys, "sdr", path)
        assert code == 2 and "sets[0]" in env["diagnostics"]

    @pytest.mark.parametrize("family, field", [
        ({"ground": ["1", "2"], "sets": [1, 2]}, "sets[0]"),
        ({"ground": ["1"], "sets": [["1"], "1"]}, "sets[1]"),
        ({"ground": [[1]], "sets": []}, "ground"),
        ({"ground": "ab", "sets": [["a"]]}, "ground"),
    ])
    def test_malformed_family_names_field(self, capsys, tmp_path, family, field):
        path = write(tmp_path, "shape.json", family)
        code, env, _ = run(capsys, "sdr", path)
        assert code == 2 and env["status"] == "invalid-input"
        assert f"(field: {field})" in env["diagnostics"]


class TestCoreCommands:
    def test_defect(self, capsys, tmp_path):
        path = write(
            tmp_path, "d.json", {"ground": ["1", "2"], "sets": [["1"], ["1"], ["1", "2"]]}
        )
        code, env, _ = run(capsys, "defect", path)
        assert code == 0 and env["payload"]["defect"] == 1
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "defect", path, "--verify", cert)[0] == 0

    def test_count_sdr(self, capsys, fam3):
        code, env, _ = run(capsys, "count-sdr", fam3)
        assert code == 0 and env["payload"]["count"] == 2

    def test_count_ceiling_flag(self, capsys, tmp_path):
        ground = [str(i) for i in range(6)]
        path = write(
            tmp_path, "wide.json", {"ground": ground, "sets": [[g] for g in ground]}
        )
        assert run(capsys, "count-sdr", path, "--ceiling", "3")[0] == 3
        code, env, _ = run(capsys, "count-sdr", path, "--ceiling", "6")
        assert code == 0 and env["payload"]["count"] == 1

    def test_array_sdr(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "arr.json",
            {"ground": ["1", "2"], "grid": [[["1", "2"], ["1", "2"]], [["1", "2"], ["1", "2"]]]},
        )
        code, env, _ = run(capsys, "array-sdr", path)
        assert code == 0
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "array-sdr", path, "--verify", cert)[0] == 0

    def test_array_sdr_none(self, capsys, tmp_path):
        path = write(
            tmp_path, "arr0.json", {"ground": ["1"], "grid": [[["1"], ["1"]]]}
        )
        assert run(capsys, "array-sdr", path)[0] == 1


@pytest.fixture
def graph6(tmp_path):
    return write(
        tmp_path,
        "c6.json",
        {
            "partA": ["a0", "a1", "a2"],
            "partB": ["b0", "b1", "b2"],
            "edges": [["a0", "b0"], ["a0", "b2"], ["a1", "b0"], ["a1", "b1"], ["a2", "b1"], ["a2", "b2"]],
        },
    )


class TestGraphCommands:
    def test_matching(self, capsys, graph6):
        code, env, _ = run(capsys, "matching", graph6)
        assert code == 0 and env["payload"]["size"] == 3

    @pytest.mark.parametrize("edge", [["a0", "b0", "b1"], ["a0"], "a0", [["a0"], "b0"]])
    def test_edge_not_a_pair(self, capsys, tmp_path, edge):
        path = write(tmp_path, "g.json", {"partA": ["a0"], "partB": ["b0", "b1"],
                                          "edges": [["a0", "b1"], edge]})
        code, env, _ = run(capsys, "matching", path)
        assert code == 2 and "(field: edges[1])" in env["diagnostics"]

    def test_cover_with_verify(self, capsys, tmp_path, graph6):
        code, env, _ = run(capsys, "cover", graph6)
        assert code == 0 and env["payload"]["size"] == 3
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "cover", graph6, "--verify", cert)[0] == 0

    def test_menger(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            {
                "vertices": ["s", "a", "b", "c", "t"],
                "edges": [["s", "a"], ["s", "b"], ["s", "c"], ["a", "t"], ["b", "t"], ["c", "t"]],
            },
        )
        code, env, _ = run(capsys, "menger", path, "--source", "s", "--sink", "t")
        assert code == 0 and env["payload"]["count"] == 3
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "menger", path, "--source", "s", "--sink", "t", "--verify", cert)[0] == 0
        code, env, _ = run(capsys, "menger", path, "--source", "s", "--sink", "s")
        assert code == 2

    def test_maxflow(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "net.json",
            {
                "source": "s",
                "sink": "t",
                "edges": [["s", "u", 1], ["s", "v", 1], ["u", "t", 1], ["v", "t", 1]],
            },
        )
        code, env, _ = run(capsys, "maxflow", path)
        assert code == 0 and env["payload"]["value"] == 2
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "maxflow", path, "--verify", cert)[0] == 0


class TestPosetCommands:
    @pytest.fixture
    def divis(self, tmp_path):
        pairs = [
            [str(a), str(b)]
            for a in range(1, 7)
            for b in range(1, 7)
            if a != b and b % a == 0
        ]
        return write(
            tmp_path,
            "p.json",
            {"elements": [str(i) for i in range(1, 7)], "less_than": pairs},
        )

    def test_dilworth(self, capsys, tmp_path, divis):
        code, env, _ = run(capsys, "dilworth", divis)
        assert code == 0 and len(env["payload"]["chains"]) == 3
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "dilworth", divis, "--verify", cert)[0] == 0

    def test_mirsky(self, capsys, tmp_path, divis):
        code, env, _ = run(capsys, "mirsky", divis)
        assert code == 0 and len(env["payload"]["antichains"]) == 3
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "mirsky", divis, "--verify", cert)[0] == 0

    def test_perfect_true(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "c4.json",
            {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]},
        )
        code, env, _ = run(capsys, "perfect", path)
        assert code == 0 and env["payload"]["perfect"] and env["payload"]["berge"]

    def test_perfect_false_with_witness(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "c5.json",
            {"vertices": [0, 1, 2, 3, 4], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
        )
        code, env, _ = run(capsys, "perfect", path)
        assert code == 1 and not env["payload"]["perfect"]
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "perfect", path, "--verify", cert)[0] == 0


class TestBirkhoffCommands:
    def test_birkhoff_with_verify(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "m.json",
            {
                "n": 3,
                "entries": [["2/3", "1/3", "0"], ["1/3", "1/3", "1/3"], ["0", "1/3", "2/3"]],
            },
        )
        code, env, _ = run(capsys, "birkhoff", path)
        assert code == 0
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "birkhoff", path, "--verify", cert)[0] == 0

    def test_birkhoff_rejects_non_stochastic(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", {"n": 2, "entries": [["1", "1"], ["0", "0"]]})
        assert run(capsys, "birkhoff", path)[0] == 2

    def test_permanent(self, capsys, tmp_path):
        path = write(
            tmp_path, "m.json", {"n": 3, "entries": [["1", "1", "1"]] * 3}
        )
        code, env, _ = run(capsys, "permanent", path)
        assert code == 0 and env["payload"]["permanent"] == "6"

    def test_bounds(self, capsys):
        code, env, _ = run(capsys, "bounds", "3", "--regular", "2")
        assert code == 0
        assert env["payload"]["vdw"] == "2/9"
        assert env["payload"]["regular"] == "16/9"


class TestLatinCommands:
    def test_extend_and_verify(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 3, "rows": [[1, 2, 3], [2, 3, 1]]})
        code, env, _ = run(capsys, "latin-extend", path)
        assert code == 0 and env["payload"]["rows"][-1] == [3, 1, 2]
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "latin-extend", path, "--verify", cert)[0] == 0

    def test_extend_square_invalid(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 1, "rows": [[1]]})
        assert run(capsys, "latin-extend", path)[0] == 2

    def test_complete(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 4, "rows": []})
        code, env, _ = run(capsys, "latin-complete", path)
        assert code == 0 and len(env["payload"]["rows"]) == 4

    def test_count(self, capsys):
        code, env, _ = run(capsys, "latin-count", "4")
        assert code == 0 and env["payload"]["count"] == 576

    def test_count_limit(self, capsys):
        assert run(capsys, "latin-count", "9")[0] == 3

    def test_youden(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "fano.json",
            {
                "points": list(range(1, 8)),
                "blocks": [[1, 2, 4], [2, 3, 5], [3, 4, 6], [4, 5, 7], [5, 6, 1], [6, 7, 2], [7, 1, 3]],
            },
        )
        code, env, _ = run(capsys, "youden", path)
        assert code == 0 and len(env["payload"]["array"]) == 3
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "youden", path, "--verify", cert)[0] == 0


def graphic_30():
    """A 30-set family over the 117 edges of a connected 30-vertex graph.

    Every set holds a planted edge of its own, so a plain SDR exists, but
    the 30 sets span rank at most 29 in the graphic matroid.  Seeded, so
    the instance is the same on every run.
    """
    rng = random.Random("graphic-30")
    n_vertices, n_edges, n_sets, set_size = 30, 117, 30, 4
    vertices = [f"u{i}" for i in range(n_vertices)]
    pairs = set()
    order = list(range(n_vertices))
    rng.shuffle(order)
    for k in range(1, n_vertices):
        u, v = order[k], order[rng.randrange(k)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n_edges:
        u, v = rng.sample(range(n_vertices), 2)
        pairs.add((min(u, v), max(u, v)))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    edge_ids = [f"e{k}" for k in range(len(pairs))]
    graph = {eid: [vertices[u], vertices[v]] for eid, (u, v) in zip(edge_ids, pairs)}
    planted = rng.sample(edge_ids, n_sets)
    sets = []
    for i in range(n_sets):
        members = {planted[i]}
        while len(members) < set_size:
            members.add(rng.choice(edge_ids))
        sets.append(sorted(members))
    return {"ground": edge_ids, "sets": sets}, {"kind": "graphic", "graph": graph}


class TestRadoCommand:
    def test_sir_found(self, capsys, tmp_path, fam3):
        matroid = write(tmp_path, "mat.json", {"kind": "free", "ground": ["1", "2", "3"]})
        code, env, _ = run(capsys, "rado", fam3, matroid)
        assert code == 0
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "rado", fam3, matroid, "--verify", cert)[0] == 0

    def test_violator(self, capsys, tmp_path):
        fam = write(
            tmp_path,
            "f.json",
            {"ground": ["e1", "e2", "e3"], "sets": [["e1", "e2", "e3"]] * 3},
        )
        matroid = write(
            tmp_path,
            "mat.json",
            {"kind": "graphic", "graph": {"e1": ["u", "v"], "e2": ["v", "w"], "e3": ["w", "u"]}},
        )
        code, env, _ = run(capsys, "rado", fam, matroid)
        assert code == 1 and env["payload"]["rank"] == 2
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "rado", fam, matroid, "--verify", cert)[0] == 0

    @pytest.mark.parametrize("graph", [
        [["u", "v"], ["v", "w"]],
        {"e1": ["u", "v", "w"], "e2": ["v", "w"]},
        {"e1": "uv"},
        {"e1": [["u"], "v"]},
    ])
    def test_malformed_graph_names_field(self, capsys, tmp_path, fam3, graph):
        matroid = write(tmp_path, "mat.json", {"kind": "graphic", "graph": graph})
        code, env, _ = run(capsys, "rado", fam3, matroid)
        assert code == 2 and "(field: graph)" in env["diagnostics"]

    def test_graphic_30_violator(self, capsys, tmp_path):
        family_obj, matroid_obj = graphic_30()
        family = core.SetFamily.from_json(family_obj)
        m = matroids.matroid_from_json(matroid_obj)
        result = matroids.rado_check(family, m)
        assert isinstance(result, matroids.RadoViolator)
        assert m.rank_of(result.union) == result.rank < len(result.indices)
        assert set(family.union_of(result.indices)) == set(result.union)
        fam = write(tmp_path, "f.json", family_obj)
        matroid = write(tmp_path, "mat.json", matroid_obj)
        code, env, _ = run(capsys, "rado", fam, matroid)
        assert code == 1
        assert env["payload"]["indices"] == list(result.indices)
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "rado", fam, matroid, "--verify", cert)[0] == 0


class TestCosetsCommand:
    def test_table_group(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "klein.json",
            {
                "elements": ["e", "a", "b", "c"],
                "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
            },
        )
        code, env, _ = run(capsys, "cosets", path, "--generators", '["a"]')
        assert code == 0
        assert len(env["payload"]["reps"]) == 2
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "cosets", path, "--generators", '["a"]', "--verify", cert)[0] == 0

    def test_permutation_group(self, capsys, tmp_path):
        path = write(tmp_path, "s3.json", {"permutations": [[2, 1, 3], [2, 3, 1]], "degree": 3})
        code, env, _ = run(capsys, "cosets", path, "--generators", "[[2, 1, 3]]")
        assert code == 0 and len(env["payload"]["reps"]) == 3


class TestHyperCommand:
    def test_found(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "h.json",
            {"vertices": ["1", "2", "3", "4"], "hypergraphs": [[["1", "2"], ["3", "4"]], [["1", "2"]]]},
        )
        code, env, _ = run(capsys, "hyper-sdr", path)
        assert code == 0
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "hyper-sdr", path, "--verify", cert)[0] == 0

    def test_not_found_with_witness(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "h.json",
            {"vertices": ["1", "2"], "hypergraphs": [[["1", "2"]], [["1", "2"]]]},
        )
        code, env, _ = run(capsys, "hyper-sdr", path)
        assert code == 1 and env["payload"]["witness"] == [0, 1]
