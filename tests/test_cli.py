import ast
import importlib
import inspect
import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import transversal
from transversal import _bitmatch, birkhoff, cli, core, groups, latin, matroids, posets


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def refused_within_a_second(capsys, *argv, exit_code=3):
    """Run argv in a separate process first, so that a missing ceiling fails
    the test instead of hanging it, then in this one against the clock; both
    must exit `exit_code`: 3, a resource limit, or 2, invalid input.
    Returns the envelope."""
    src = os.path.dirname(os.path.dirname(inspect.getfile(cli)))
    proc = subprocess.run([sys.executable, "-m", "transversal.cli", *argv], timeout=30,
                          capture_output=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == exit_code
    start = time.perf_counter()
    code, env, _ = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    status = {2: "invalid-input", 3: "resource-limit"}[exit_code]
    assert code == exit_code and env["status"] == status
    return env


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
        for reps, reason in (
            ("123", "'reps' must be of type list (field: reps)"),
            (["1", ["2"], "3"], "reps must be a list of labels: unhashable type: 'list' "
                                "(field: reps)"),
            (["1", "zz", "3"], "reps holds 'zz', which is not a label (field: reps)"),
        ):
            cert = write(tmp_path, "forged.json", {"reps": reps})
            code, env, _ = run(capsys, "sdr", fam3, "--verify", cert)
            assert code == 1 and env["payload"] == {"valid": False, "reason": reason}

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
        ({"ground": ["1"], "sets": [["1"], ["1"], [["1"]]]}, "sets[2]"),
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
        # A key names a set only as the decimal string of its index.
        (first, x), *rest = env["payload"]["partial"].items()
        for key in ("01", "-1", "3", f" {first}", f"+{first}"):
            forged = {**env["payload"], "partial": dict([(key, x), *rest])}
            code, venv, _ = run(capsys, "defect", path, "--verify",
                                write(tmp_path, "forged.json", forged))
            assert code == 1
            assert venv["payload"]["reason"] == f"assignment {key} -> {x!r} is not a membership"

    @pytest.mark.parametrize("cert, reason", [
        ({"defect": 2, "partial": {}}, "(field: indices)"),
        ({"defect": 2, "partial": {}, "indices": [0, 1]}, "(field: union)"),
        ({"defect": 2, "partial": {}, "indices": [0, 1], "union": ["a", "b"]},
         "fall short by 0, not by the defect 2"),
        ({"defect": 2, "partial": {}, "indices": [0], "union": ["b"]},
         "stated union differs"),
    ])
    def test_defect_needs_a_witness_of_its_size(self, capsys, tmp_path, cert, reason):
        path = write(tmp_path, "d.json", {"ground": ["a", "b"], "sets": [["a"], ["b"]]})
        code, env, _ = run(capsys, "defect", path, "--verify", write(tmp_path, "c.json", cert))
        assert code == 1 and env["payload"]["valid"] is False
        assert reason in env["payload"]["reason"]

    def test_defect_witness_short_of_the_defect(self, capsys, tmp_path):
        path = write(
            tmp_path, "d.json", {"ground": ["1", "2"], "sets": [["1"], ["1"], ["1"], ["1", "2"]]}
        )
        code, env, _ = run(capsys, "defect", path)
        assert code == 0 and env["payload"]["defect"] == 2
        assert env["payload"]["indices"] == [0, 1, 2] and env["payload"]["union"] == ["1"]
        short = {**env["payload"], "indices": [0, 1], "union": ["1"]}
        code, env, _ = run(capsys, "defect", path, "--verify", write(tmp_path, "c.json", short))
        assert code == 1 and "fall short by 1, not by the defect 2" in env["payload"]["reason"]

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
        for row, reason in (
            ("21", "grid[1] is not a list of the right size (field: grid[1])"),
            (["2", {}], "grid[1] must be a list of labels: unhashable type: 'dict' "
                        "(field: grid[1])"),
            (["zz", "1"], "grid[1] holds 'zz', which is not a label (field: grid[1])"),
        ):
            cert = write(tmp_path, "cert.json", {"grid": [["1", "2"], row]})
            code, env, _ = run(capsys, "array-sdr", path, "--verify", cert)
            assert code == 1 and env["payload"] == {"valid": False, "reason": reason}

    def test_array_sdr_none(self, capsys, tmp_path):
        path = write(
            tmp_path, "arr0.json", {"ground": ["1"], "grid": [[["1"], ["1"]]]}
        )
        assert run(capsys, "array-sdr", path)[0] == 1

    def test_array_sdr_deep_grid(self, capsys, tmp_path):
        # 1600 cells, two candidates each: a search 1600 levels deep
        n = 40
        grid = [[[str((r + c) % n), str((r + c + 1) % n)] for c in range(n)] for r in range(n)]
        path = write(tmp_path, "arr40.json", {"ground": [str(k) for k in range(n)], "grid": grid})
        code, env, _ = run(capsys, "array-sdr", path, "--ceiling", "5000")
        assert code == 0 and env["status"] == "found"
        cert = write(tmp_path, "cert.json", env["payload"])
        code, env, _ = run(capsys, "array-sdr", path, "--ceiling", "5000", "--verify", cert)
        assert code == 0 and env["payload"]["valid"] is True


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

    def test_unhashable_vertex_names_field(self, capsys, tmp_path):
        path = write(tmp_path, "g.json", {"partA": [[1]], "partB": ["b0"], "edges": []})
        code, env, _ = run(capsys, "matching", path)
        assert code == 2 and "(field: partA)" in env["diagnostics"]

    def test_menger_edge_not_a_pair(self, capsys, tmp_path):
        path = write(tmp_path, "g.json", {"vertices": ["s", "a", "t"],
                                          "edges": [["s", "a"], ["s", "a", "t"]]})
        code, env, _ = run(capsys, "menger", path, "--source", "s", "--sink", "t")
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

    def test_maxflow_past_the_digit_limit(self, capsys, tmp_path):
        """Capacities of 4300 nines each print, but the flow value, twice
        one of them, has 4301 digits: exit 3, no traceback."""
        big = int("9" * 4300)
        net = {"source": "s", "sink": "t", "edges": [["s", "t", big], ["s", "m", big],
                                                     ["m", "t", big]]}
        path = write(tmp_path, "net.json", net)
        env = refused_within_a_second(capsys, "maxflow", path)
        assert env["diagnostics"] == "the maximum flow has over 4300 digits, too many to print"
        net["edges"][0][2] = 0
        path = write(tmp_path, "net.json", net)
        code, env, _ = run(capsys, "maxflow", path)
        assert code == 0 and env["payload"]["value"] == big


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

    def test_perfect_refused_by_node_budget(self, capsys, tmp_path):
        """An 8x8 grid at a raised ceiling is refused by the search's node
        budget; the 40-cycle is perfect, and its 40 vertices are no witness."""
        cells = [(r, c) for r in range(8) for c in range(8)]
        grid = {"vertices": [f"{r},{c}" for r, c in cells],
                "edges": [[f"{r},{c}", f"{r + dr},{c + dc}"] for r, c in cells
                          for dr, dc in ((0, 1), (1, 0)) if r + dr < 8 and c + dc < 8]}
        path = write(tmp_path, "grid.json", grid)
        env = refused_within_a_second(capsys, "perfect", path, "--ceiling", "64")
        budget = posets.PERFECT_BUDGET
        assert f"entered {budget + 1} paths" in env["diagnostics"]
        assert f"node budget of {budget}" in env["diagnostics"]
        ring = {"vertices": list(range(40)), "edges": [[i, (i + 1) % 40] for i in range(40)]}
        path = write(tmp_path, "c40.json", ring)
        code, env, _ = run(capsys, "perfect", path, "--ceiling", "64")
        assert code == 0 and env["payload"]["perfect"] is True
        cert = write(tmp_path, "cert.json", {"witness": list(range(40))})
        code, env, _ = run(capsys, "perfect", path, "--ceiling", "64", "--verify", cert)
        assert code == 1 and "40 vertices" in env["payload"]["reason"]

    @pytest.mark.parametrize("n, perfect", [(4, True), (5, False)])
    def test_berge_equals_perfect(self, capsys, tmp_path, n, perfect):
        ring = {"vertices": list(range(n)), "edges": [[i, (i + 1) % n] for i in range(n)]}
        env = run(capsys, "perfect", write(tmp_path, "ring.json", ring))[1]
        assert env["payload"]["perfect"] is perfect and env["payload"]["berge"] is perfect

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

    def test_birkhoff_long_denominators_not_stochastic(self, capsys, tmp_path):
        """Row sums over denominators of 2000 digits are too long to print:
        the refusal names the row and exits 2 without printing its sum."""
        rng = random.Random(2000)
        entries = [[f"1/{rng.randrange(10**1999, 10**2000)}" for _ in range(4)] for _ in range(4)]
        path = write(tmp_path, "m.json", {"n": 4, "entries": entries})
        code, env, err = run(capsys, "birkhoff", path)
        assert code == 2 and env["status"] == "invalid-input"
        assert env["diagnostics"].startswith("matrix is not doubly stochastic: row 0 ")
        assert len(env["diagnostics"]) < 200
        ok, reason = birkhoff.is_doubly_stochastic(birkhoff.RationalMatrix(entries))
        assert not ok and reason.startswith("row 0 ")

    def test_many_denominators_refused_within_a_second(self, capsys, tmp_path):
        """40x40 "1/q" entries with 300-digit q have a common denominator of
        some 12,000 digits, but row 0 already fails over its own: the
        refusal names it and exits 2 before that denominator is built."""
        rng = random.Random(40)
        entries = [[f"1/{rng.randrange(10**299, 10**300)}" for _ in range(40)] for _ in range(40)]
        path = write(tmp_path, "m.json", {"n": 40, "entries": entries})
        env = refused_within_a_second(capsys, "birkhoff", path, exit_code=2)
        assert env["diagnostics"] == ("matrix is not doubly stochastic: row 0 does not sum to 1: "
                                      "its sum has over 4300 digits (field: entries)")

    def test_many_denominators_decomposed_within_a_second(self, capsys, tmp_path):
        """80 diagonal blocks [[1/q, 1 - 1/q], [1 - 1/q, 1/q]] with distinct
        300-digit q give a common denominator of some 24,000 digits: each row
        is brought to it with one division, not one per entry."""
        rng, n = random.Random(160), 160
        entries = [["0"] * n for _ in range(n)]
        for k in range(0, n, 2):
            q = rng.randrange(10**299, 10**300)
            entries[k][k] = entries[k + 1][k + 1] = f"1/{q}"
            entries[k][k + 1] = entries[k + 1][k] = f"{q - 1}/{q}"
        path = write(tmp_path, "m.json", {"n": n, "entries": entries})
        start = time.perf_counter()
        code, env, _ = run(capsys, "birkhoff", path)
        assert time.perf_counter() - start < 1.0 and code == 0
        cert = write(tmp_path, "cert.json", env["payload"])
        assert run(capsys, "birkhoff", path, "--verify", cert)[0] == 0

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
        code, env, _ = run(capsys, "bounds", "42")  # the largest n below the ceiling
        assert code == 0 and env["payload"]["latin"].count("/") == 1

    def test_permanent_work_guard_above_a_raised_ceiling(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", {"n": 28, "entries": [["1"] * 28] * 28})
        env = refused_within_a_second(capsys, "permanent", path, "--ceiling", "40")
        assert str(1 << 27) in env["diagnostics"] and "8388608" in env["diagnostics"]

    def test_permanent_work_guard_weighs_big_entries(self, capsys, tmp_path):
        """20x20 "1/q" entries with 300-digit q rescale to integers of some
        6000 digits a row: under the default ceiling, the 2^19 sets of the
        walk weigh about 300 machine words each and are refused at once."""
        rng = random.Random(300)
        entries = [[f"1/{rng.randrange(10**299, 10**300)}" for _ in range(20)] for _ in range(20)]
        path = write(tmp_path, "m.json", {"n": 20, "entries": entries})
        env = refused_within_a_second(capsys, "permanent", path)
        assert f"walks {1 << 19} column sets, " in env["diagnostics"]
        assert "weighed by the words of their entries" in env["diagnostics"]

    def test_permanent_past_the_digit_limit(self, capsys, tmp_path):
        """The permanent of 4x4 "1/q" entries with 2000-digit q has a
        denominator of some 8000 digits, too many to print: exit 3, no
        traceback."""
        rng = random.Random(2000)
        entries = [[f"1/{rng.randrange(10**1999, 10**2000)}" for _ in range(4)] for _ in range(4)]
        path = write(tmp_path, "m.json", {"n": 4, "entries": entries})
        env = refused_within_a_second(capsys, "permanent", path)
        assert env["diagnostics"] == "the permanent has over 4300 digits, too many to print"

    def test_birkhoff_coefficient_past_the_digit_limit(self, capsys, tmp_path):
        """Each entry of this 8x8 doubly stochastic matrix prints in some
        3000 digits, but a Birkhoff coefficient can combine the
        denominators of several entries: here one passes 4300 digits, and
        the refusal exits 3 with no traceback."""
        rng = random.Random(3)
        k, n = 4, 8
        weights = []  # eight weights that sum to 1, in pairs of 1/k
        for _ in range(k):
            p = rng.randrange(10**1499, 10**1500)
            x = Fraction(rng.randrange(1, p), k * p)
            weights += [x, Fraction(1, k) - x]
        # a Latin square of the weights: each row and column holds each once
        entries = [[str(weights[(i + j) % n]) for j in range(n)] for i in range(n)]
        path = write(tmp_path, "m.json", {"n": n, "entries": entries})
        env = refused_within_a_second(capsys, "birkhoff", path)
        assert env["diagnostics"] == "a coefficient has over 4300 digits, too many to print"

    def test_permanent_order_refused_before_parsing(self, capsys, tmp_path):
        path = write(tmp_path, "m.json", {"entries": [["1"] * 700] * 700})
        env = refused_within_a_second(capsys, "permanent", path)
        assert env["diagnostics"] == "order 700 is above the permanent ceiling 20"
        path = write(tmp_path, "m.json", {"n": 699, "entries": [["1"] * 700] * 700})
        code, env, _ = run(capsys, "permanent", path)
        assert code == 2 and "(field: n)" in env["diagnostics"]

    @pytest.mark.parametrize("n", ["43", "1000"])
    def test_bounds_ceiling(self, capsys, n):
        env = refused_within_a_second(capsys, "bounds", n)
        assert n in env["diagnostics"] and "ceiling 42" in env["diagnostics"]


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

    def test_extend_square_names_rows(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 2, "rows": [[1, 2], [2, 1]]})
        code, env, _ = run(capsys, "latin-extend", path)
        assert code == 2 and env["diagnostics"].endswith("(field: rows)")

    def test_width_ceiling(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 20000, "rows": []})
        env = refused_within_a_second(capsys, "latin-extend", path)
        assert "16384" in env["diagnostics"]

    def test_complete(self, capsys, tmp_path):
        path = write(tmp_path, "r.json", {"n": 4, "rows": []})
        code, env, _ = run(capsys, "latin-complete", path)
        assert code == 0 and len(env["payload"]["rows"]) == 4

    def test_count(self, capsys):
        code, env, _ = run(capsys, "latin-count", "4")
        assert code == 0 and env["payload"]["count"] == 576

    def test_count_limit(self, capsys):
        assert run(capsys, "latin-count", "9")[0] == 3

    def test_complete_work_budget(self, capsys, tmp_path):
        # 3 kB in: completing it would take over 10 s and print 1.7 MB
        path = write(tmp_path, "row.json", {"n": 600, "rows": [list(range(1, 601))]})
        start = time.perf_counter()
        code, env, _ = run(capsys, "latin-complete", path)
        assert time.perf_counter() - start < 1
        assert code == 3 and env["status"] == "resource-limit"
        assert f"over the budget of {latin.COMPLETION_BUDGET}" in env["diagnostics"]

    def test_count_node_budget(self, capsys):
        # admitted by the raised ceiling, refused by the search's node budget
        code, env, _ = run(capsys, "latin-count", "7", "--ceiling", "7")
        assert code == 3 and env["status"] == "resource-limit"
        assert "node budget" in env["diagnostics"]

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

    def test_youden_block_not_a_list(self, capsys, tmp_path):
        path = write(tmp_path, "d.json", {"points": [1, 2], "blocks": [1, 2]})
        code, env, _ = run(capsys, "youden", path)
        assert code == 2 and "(field: blocks)" in env["diagnostics"]


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

    @pytest.mark.parametrize("matroid, field", [
        ({"kind": "linear", "columns": {"1": "12", "2": "24"}, "modulus": 5}, "columns"),
        ({"kind": "linear", "columns": {"1": [1.5, 0], "2": [0, 1]}, "modulus": 5}, "columns"),
        ({"kind": "linear", "columns": {"1": [True, 0], "2": [0, 1]}, "modulus": 5}, "columns"),
        ({"kind": "linear", "columns": {"1": ["1", 0], "2": [0, 1]}, "modulus": 5}, "columns"),
        ({"kind": "uniform", "ground": "12", "rank": 1}, "ground"),
        ({"kind": "free", "ground": "12"}, "ground"),
    ])
    def test_malformed_values_name_field(self, capsys, tmp_path, matroid, field):
        """A string column or ground is not split into characters, and a
        column entry that is not an integer is not rounded or converted."""
        fam = write(tmp_path, "f.json", {"ground": ["1", "2"], "sets": [["1", "2"], ["1", "2"]]})
        code, env, _ = run(capsys, "rado", fam, write(tmp_path, "mat.json", matroid))
        assert code == 2 and f"(field: {field})" in env["diagnostics"]

    def test_family_ground_outside_the_matroid(self, capsys, tmp_path):
        """Solving and --verify both refuse the input, naming the ground;
        --verify does so before it reads the certificate, here a missing
        file."""
        fam = write(tmp_path, "f.json", {"ground": ["1", "z"], "sets": [["1"], ["z"]]})
        matroid = write(tmp_path, "mat.json", {"kind": "free", "ground": ["1", "2"]})
        missing = str(tmp_path / "no-such-cert.json")
        for extra in ((), ("--verify", missing)):
            code, env, _ = run(capsys, "rado", fam, matroid, *extra)
            assert code == 2 and env["diagnostics"].endswith("(field: ground)"), extra

    def test_huge_prime_modulus_hits_the_ceiling(self, capsys, tmp_path, fam3):
        matroid = {"kind": "linear", "columns": {"1": [1], "2": [1]}, "modulus": (1 << 61) - 1}
        env = refused_within_a_second(capsys, "rado", fam3, write(tmp_path, "mat.json", matroid))
        assert str(1 << 40) in env["diagnostics"]

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

    def test_one_coset_system_per_solve(self, capsys, tmp_path, monkeypatch):
        path = write(tmp_path, "s4.json", {"permutations": [[2, 1, 3, 4], [2, 3, 4, 1]],
                                           "degree": 4})
        calls, system = [], groups.coset_system
        monkeypatch.setattr(groups, "coset_system", lambda *a: calls.append(a) or system(*a))
        code, env, _ = run(capsys, "cosets", path, "--generators", "[[2, 1, 3, 4]]")
        assert code == 0 and len(calls) == 1
        assert env["payload"]["family"] == groups.coset_family(*calls[0]).to_json()

    def test_s7_with_an_order_24_subgroup_within_a_second(self, capsys, tmp_path):
        s7 = {"permutations": [[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 1]], "degree": 7}
        path = write(tmp_path, "s7.json", s7)
        s4 = "[[2, 1, 3, 4, 5, 6, 7], [2, 3, 4, 1, 5, 6, 7]]"
        start = time.perf_counter()
        code, env, _ = run(capsys, "cosets", path, "--generators", s4)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and len(env["payload"]["subgroup"]) == 24
        assert len(env["payload"]["reps"]) == 210
        cert = write(tmp_path, "cert.json", env["payload"])
        start = time.perf_counter()
        code, env, _ = run(capsys, "cosets", path, "--generators", s4, "--verify", cert)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and env["payload"]["valid"] is True

    @pytest.mark.parametrize("group", [
        {"permutations": [], "degree": 3000000},
        {"permutations": [[1]], "degree": 3000000},
        {"permutations": [[2, 1, *range(3, 11)], [*range(2, 11), 1]], "degree": 10},  # S_10
    ])
    def test_entry_ceiling(self, capsys, tmp_path, group):
        env = refused_within_a_second(capsys, "cosets", write(tmp_path, "g.json", group),
                                      "--generators", "[]")
        order = 104858 if group["degree"] == 10 else 1
        assert f"order reached {order}" in env["diagnostics"]
        assert "ceiling of 1048576" in env["diagnostics"]

    def test_table_above_the_associativity_ceiling(self, capsys, tmp_path):
        n = groups.ASSOCIATIVITY_CEILING + 1
        group = {"elements": list(range(n)),
                 "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
        env = refused_within_a_second(capsys, "cosets", write(tmp_path, "g.json", group),
                                      "--generators", "[]")
        assert f"order {n}" in env["diagnostics"] and "ceiling 256" in env["diagnostics"]

    @pytest.mark.parametrize("generators", ["5", '[{"x": 1}]', '"a"', '["zz"]', "[[1]]", "[1"])
    def test_malformed_generators_name_field(self, capsys, tmp_path, generators):
        path = write(tmp_path, "z2.json", {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]})
        code, env, _ = run(capsys, "cosets", path, "--generators", generators)
        assert code == 2 and "(field: generators)" in env["diagnostics"]


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

    def test_node_budget(self, capsys, tmp_path):
        # 1100 disjoint pairs and one edge on all their vertices: the
        # maximal matchings of the pairs are a search 1100 levels deep
        vertices = [str(k) for k in range(2200)]
        pairs = [vertices[k:k + 2] for k in range(0, 2200, 2)]
        path = write(tmp_path, "h.json", {"vertices": vertices, "hypergraphs": [pairs, [vertices]]})
        code, env, _ = run(capsys, "hyper-sdr", path, "--ceiling", "5000")
        assert code == 3 and env["status"] == "resource-limit"
        assert f"node budget of {_bitmatch.NODE_BUDGET}" in env["diagnostics"]


FAMILY = {"ground": ["a", "b"], "sets": [["a"], ["a", "b"]]}
VALID_INPUTS = {
    "sdr": ([FAMILY], ()),
    "defect": ([FAMILY], ()),
    "array-sdr": ([{"ground": ["a"], "grid": [[["a"]]]}], ()),
    "matching": ([{"partA": ["x"], "partB": ["y"], "edges": [["x", "y"]]}], ()),
    "cover": ([{"partA": ["x"], "partB": ["y"], "edges": [["x", "y"]]}], ()),
    "menger": ([{"vertices": ["s", "a", "t"], "edges": [["s", "a"], ["a", "t"]]}],
               ("--source", "s", "--sink", "t")),
    "maxflow": ([{"source": "s", "sink": "t", "edges": [["s", "t", 1]]}], ()),
    "dilworth": ([{"elements": ["a", "b"], "less_than": [["a", "b"]]}], ()),
    "mirsky": ([{"elements": ["a", "b"], "less_than": [["a", "b"]]}], ()),
    "perfect": ([{"vertices": [0, 1], "edges": [[0, 1]]}], ()),
    "birkhoff": ([{"n": 1, "entries": [["1"]]}], ()),
    "latin-extend": ([{"n": 2, "rows": [[1, 2]]}], ()),
    "latin-complete": ([{"n": 2, "rows": [[1, 2]]}], ()),
    "youden": ([{"points": [1, 2], "blocks": [[1], [2]]}], ()),
    "rado": ([FAMILY, {"kind": "free", "ground": ["a", "b"]}], ()),
    "cosets": ([{"elements": ["e", "a"], "table": [[0, 1], [1, 0]]}], ("--generators", '["a"]')),
    "hyper-sdr": ([{"vertices": ["1"], "hypergraphs": [[["1"]]]}], ()),
}


# subcommand -> {"empty": (files, extra arguments), "one": (files, extra arguments)}
EDGE_INPUTS = {
    command: {"empty": (empty, extra), "one": (one, one_extra)}
    for command, empty, one, extra, one_extra in [
        ("sdr", [{"ground": [], "sets": []}], [{"ground": ["a"], "sets": [["a"]]}], (), ()),
        ("defect", [{"ground": [], "sets": []}], [{"ground": ["a"], "sets": [["a"]]}], (), ()),
        ("array-sdr", [{"ground": [], "grid": []}], [{"ground": ["a"], "grid": [[["a"]]]}],
         (), ()),
        ("matching", [{"partA": [], "partB": [], "edges": []}],
         [{"partA": ["x"], "partB": ["y"], "edges": [["x", "y"]]}], (), ()),
        ("cover", [{"partA": [], "partB": [], "edges": []}],
         [{"partA": ["x"], "partB": ["y"], "edges": [["x", "y"]]}], (), ()),
        ("menger", [{"vertices": ["s", "t"], "edges": []}],
         [{"vertices": ["s", "t"], "edges": [["s", "t"]]}],
         ("--source", "s", "--sink", "t"), ("--source", "s", "--sink", "t", "--mode", "edge")),
        ("maxflow", [{"source": "s", "sink": "t", "edges": []}],
         [{"source": "s", "sink": "t", "edges": [["s", "t", 1]]}], (), ()),
        ("dilworth", [{"elements": [], "less_than": []}],
         [{"elements": ["a"], "less_than": []}], (), ()),
        ("mirsky", [{"elements": [], "less_than": []}],
         [{"elements": ["a"], "less_than": []}], (), ()),
        ("perfect", [{"vertices": [], "edges": []}], [{"vertices": ["a"], "edges": []}], (), ()),
        ("birkhoff", [{"n": 0, "entries": []}], [{"n": 1, "entries": [["1"]]}], (), ()),
        ("latin-extend", [{"n": 1, "rows": []}], [{"n": 2, "rows": [[1, 2]]}], (), ()),
        ("latin-complete", [{"n": 0, "rows": []}], [{"n": 2, "rows": [[2, 1]]}], (), ()),
        ("youden", [{"points": [], "blocks": []}], [{"points": [1], "blocks": [[1]]}], (), ()),
        ("rado", [{"ground": [], "sets": []}, {"kind": "free", "ground": []}],
         [{"ground": ["a"], "sets": [["a"]]}, {"kind": "free", "ground": ["a"]}], (), ()),
        ("cosets", [{"elements": ["e"], "table": [[0]]}], [{"elements": ["e"], "table": [[0]]}],
         ("--generators", "[]"), ("--generators", '["e"]')),
        ("hyper-sdr", [{"vertices": [], "hypergraphs": []}],
         [{"vertices": ["1"], "hypergraphs": [[["1"]]]}], (), ()),
    ]
}


def run_on(capsys, tmp_path, command, objs, extra=()):
    paths = [write(tmp_path, f"in{k}.json", obj) for k, obj in enumerate(objs)]
    return run(capsys, command, *paths, *extra)


class TestMalformedInputs:
    @pytest.mark.parametrize("command, objs, field", [
        ("array-sdr", [{"ground": [[1]], "grid": []}], "ground"),
        ("array-sdr", [{"ground": ["a"], "grid": [1]}], "grid[0]"),
        ("array-sdr", [{"ground": ["a"], "grid": 1}], "grid"),
        ("hyper-sdr", [{"vertices": [[1]], "hypergraphs": []}], "vertices"),
        ("hyper-sdr", [{"vertices": ["1"], "hypergraphs": [[1]]}], "edges[0]"),
        ("hyper-sdr", [{"vertices": ["1"], "hypergraphs": [1]}], "hypergraphs"),
        ("dilworth", [{"elements": [[1]], "less_than": []}], "elements"),
        ("dilworth", [{"elements": ["a", "b"], "less_than": [1]}], "less_than"),
        ("dilworth", [{"elements": ["a", "b"], "less_than": [["a", [1]]]}], "less_than"),
        ("mirsky", [{"elements": ["a", "b"], "less_than": [["a", "b", "c"]]}], "less_than"),
        ("mirsky", [{"elements": ["a", "b"], "less_than": 1}], "less_than"),
        ("maxflow", [{"source": "s", "sink": "t", "edges": [1]}], "edges[0]"),
        ("maxflow", [{"source": "s", "sink": "t", "edges": [["s", "t"]]}], "edges[0]"),
        ("maxflow", [{"source": "s", "sink": "t", "edges": [["s", ["u"], 1]]}], "edges"),
        ("maxflow", [{"source": "s", "sink": "t", "edges": 1}], "edges"),
        ("rado", [FAMILY, {"kind": "uniform", "ground": [[1]], "rank": 1}], "ground"),
        ("rado", [FAMILY, {"kind": "partition", "blocks": [1], "caps": [1]}], "blocks"),
        ("rado", [FAMILY, {"kind": "partition", "blocks": [["a"], ["a"]], "caps": [1, 1]}],
         "blocks"),
        ("rado", [FAMILY, {"kind": "linear", "columns": {"a": ["x"]}, "modulus": 2}], "columns"),
        ("permanent", [{"entries": None}], "entries"),
        ("birkhoff", [{"n": 1, "entries": [1]}], "entries"),
        ("latin-extend", [{"n": None, "rows": []}], "n"),
        ("latin-complete", [{"n": 2, "rows": [1]}], "rows"),
        ("latin-extend", [{"n": 1, "rows": [], "alphabet": [[1]]}], "alphabet"),
        ("cosets", [{"elements": ["e"], "table": None}], "table"),
        ("cosets", [{"permutations": [1], "degree": 2}], "permutations"),
        ("cosets", [{"permutations": [], "degree": None}], "degree"),
    ])
    def test_names_field(self, capsys, tmp_path, command, objs, field):
        extra = VALID_INPUTS.get(command, ((), ()))[1]
        code, env, _ = run_on(capsys, tmp_path, command, objs, extra)
        assert code == 2 and env["status"] == "invalid-input"
        assert f"(field: {field})" in env["diagnostics"]

    MENGER = {"vertices": ["s", "a", "t"], "edges": [["s", "a"], ["a", "t"], ["s", "t"]]}

    @pytest.mark.parametrize("command, objs, extra, field", [
        ("menger", [MENGER], ("--source", "zz", "--sink", "t"), "source"),
        ("menger", [MENGER], ("--source", "s", "--sink", "zz"), "sink"),
        ("menger", [MENGER], ("--source", "s", "--sink", "s"), "sink"),
        ("menger", [MENGER], ("--source", "s", "--sink", "t"), "mode"),
        ("birkhoff", [{"n": 1, "entries": [["1/2"]]}], (), "entries"),
        ("bounds", [], ("0",), "n"),
        ("bounds", [], ("3", "--regular", "4"), "regular"),
        ("latin-count", [], ("0",), "n"),
        ("youden", [{"points": [1, 2], "blocks": [[1]]}], (), "blocks"),
        ("youden", [{"points": [1, 2], "blocks": [[1, 2], [1]]}], (), "blocks"),
        ("youden", [{"points": [1, 2, 3], "blocks": [[1, 2], [1, 3], [1, 2]]}], (), "blocks"),
        ("rado", [FAMILY, {"kind": "free", "ground": ["a"]}], (), "ground"),
    ])
    def test_every_refusal_names_a_field(self, capsys, tmp_path, command, objs, extra, field):
        code, env, _ = run_on(capsys, tmp_path, command, objs, extra)
        assert code == 2 and env["status"] == "invalid-input"
        assert env["diagnostics"].endswith(f"(field: {field})")

    @pytest.mark.parametrize("content, why", [(None, "cannot read"), (b"{", "not valid JSON")])
    @pytest.mark.parametrize("argv, field", [
        (("sdr", "BAD"), "family"),
        (("rado", "FAMILY", "BAD"), "matroid"),
        (("sdr", "FAMILY", "--verify", "BAD"), "certificate"),
    ])
    def test_unloadable_file_names_its_argument(self, capsys, tmp_path, content, why, argv,
                                                field):
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_bytes(content)
        files = {"FAMILY": write(tmp_path, "family.json", FAMILY), "BAD": str(bad)}
        code, env, _ = run(capsys, *(files.get(a, a) for a in argv))
        assert code == 2 and why in env["diagnostics"]
        assert env["diagnostics"].endswith(f"(field: {field})")

    @pytest.mark.parametrize("command, obj, field", [
        ("array-sdr", {"ground": "ab", "grid": [[["a"]]]}, "ground"),
        ("matching", {"partA": "x", "partB": ["y"], "edges": [["x", "y"]]}, "partA"),
        ("cover", {"partA": ["x"], "partB": "y", "edges": [["x", "y"]]}, "partB"),
        ("menger", {"vertices": "sat", "edges": [["s", "a"], ["a", "t"]]}, "vertices"),
        ("perfect", {"vertices": "01", "edges": [["0", "1"]]}, "vertices"),
        ("maxflow", {"nodes": "st", "source": "s", "sink": "t", "edges": [["s", "t", 1]]},
         "nodes"),
        ("dilworth", {"elements": "ab", "less_than": [["a", "b"]]}, "elements"),
        ("mirsky", {"elements": "ab", "less_than": []}, "elements"),
        ("latin-extend", {"n": 2, "rows": [["a", "b"]], "alphabet": "ab"}, "alphabet"),
        ("latin-complete", {"n": 2, "rows": [], "alphabet": "ab"}, "alphabet"),
        ("cosets", {"elements": "ea", "table": [[0, 1], [1, 0]]}, "elements"),
        ("hyper-sdr", {"vertices": "1", "hypergraphs": [[["1"]]]}, "vertices"),
        ("rado", {"kind": "free", "ground": "ab"}, "ground"),
    ])
    def test_label_list_given_as_a_string(self, capsys, tmp_path, command, obj, field):
        """A string is not read as a list of one-character labels."""
        objs, extra = VALID_INPUTS[command]
        objs = [FAMILY, obj] if command == "rado" else [obj]
        code, env, _ = run_on(capsys, tmp_path, command, objs, extra)
        assert code == 2 and env["status"] == "invalid-input"
        assert env["diagnostics"] == f"{field} must be a list, not a string (field: {field})"

    CEILING_INPUTS = {
        "count-sdr": ([FAMILY], ()),
        "array-sdr": VALID_INPUTS["array-sdr"],
        "perfect": ([{"vertices": [], "edges": []}], ()),
        "permanent": ([{"n": 1, "entries": [["1"]]}], ()),
        "latin-count": ([], ("3",)),
        "hyper-sdr": VALID_INPUTS["hyper-sdr"],
    }

    @pytest.mark.parametrize("command", sorted(CEILING_INPUTS))
    def test_negative_ceiling(self, capsys, tmp_path, command):
        objs, extra = self.CEILING_INPUTS[command]
        code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--ceiling", "-3"))
        assert code == 2 and env["status"] == "invalid-input"
        assert "(field: ceiling)" in env["diagnostics"]

    @pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100000 + b"]" * 100000])
    def test_unreadable_json(self, capsys, tmp_path, content):
        path = tmp_path / "raw.json"
        path.write_bytes(content)
        code, env, _ = run(capsys, "sdr", str(path))
        assert code == 2 and env["status"] == "invalid-input"

    @pytest.mark.parametrize("command", sorted(VALID_INPUTS))
    def test_certificate_not_an_object(self, capsys, tmp_path, command):
        objs, extra = VALID_INPUTS[command]
        assert run_on(capsys, tmp_path, command, objs, extra)[0] in (0, 1)
        cert = write(tmp_path, "cert.json", [1])
        code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--verify", cert))
        assert code == 2 and env["status"] == "invalid-input"
        assert "(field: certificate)" in env["diagnostics"]


class TestPosetCertificates:
    POSET = {"elements": ["a", "b", "c"], "less_than": [["a", "b"]]}

    def test_dilworth_unknown_antichain_element(self, capsys, tmp_path):
        cert = write(tmp_path, "cert.json",
                     {"chains": [["a", "b"], ["c"]], "antichain": ["zz", "c"]})
        code, env, _ = run_on(capsys, tmp_path, "dilworth", [self.POSET], ("--verify", cert))
        assert code == 1 and env["payload"]["valid"] is False

    def test_dilworth_unknown_chain_element(self, capsys, tmp_path):
        cert = write(tmp_path, "cert.json",
                     {"chains": [["a", "zz"], ["c"]], "antichain": ["b", "c"]})
        code, env, _ = run_on(capsys, tmp_path, "dilworth", [self.POSET], ("--verify", cert))
        assert code == 1 and env["payload"]["valid"] is False

    @pytest.mark.parametrize("chain", [["zz", "b"], ["a", ["b"]], ["b", "a"]])
    def test_mirsky_bad_chain(self, capsys, tmp_path, chain):
        cert = write(tmp_path, "cert.json", {"antichains": [["a", "c"], ["b"]], "chain": chain})
        code, env, _ = run_on(capsys, tmp_path, "mirsky", [self.POSET], ("--verify", cert))
        assert code == 1 and env["payload"]["valid"] is False


class TestRadoCertificates:
    TRIANGLE = ({"ground": ["e1", "e2", "e3"], "sets": [["e1", "e2", "e3"]] * 3},
                {"kind": "graphic",
                 "graph": {"e1": ["u", "v"], "e2": ["v", "w"], "e3": ["w", "u"]}})

    @pytest.mark.parametrize("cert", [
        {"indices": [0, 1, 2], "union": ["e1", "e2"], "rank": 2},
        {"indices": [0, 1, 2], "union": ["e1", "e2", "e3"], "rank": 1},
        {"indices": [0, 1, 3], "union": ["e1", "e2", "e3"], "rank": 2},
        {"indices": [0, 0, 1], "union": ["e1", "e2", "e3"], "rank": 2},
        {"indices": [0, 1, 2], "union": [["e1"], "e2", "e3"], "rank": 2},
        {"indices": [0, 1, 2], "union": ["e1", "e2", "e3"]},
        {"indices": [0, 1], "union": ["e1", "e2", "e3"], "rank": 2},
    ])
    def test_forged_violator_rejected(self, capsys, tmp_path, cert):
        path = write(tmp_path, "cert.json", cert)
        code, env, _ = run_on(capsys, tmp_path, "rado", self.TRIANGLE, ("--verify", path))
        assert code == 1 and env["payload"]["valid"] is False


C5 = {"vertices": [0, 1, 2, 3, 4], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}


class TestParserReuse:
    """One parser serves every call in a process, and no call's options or
    errors reach the next."""

    def test_built_once(self, capsys, fam3):
        assert cli._build_parser() is cli._build_parser()
        built = cli._build_parser.cache_info().misses
        run(capsys, "sdr", fam3)
        run(capsys, "count-sdr", fam3, "--ceiling", "many")
        assert cli._build_parser.cache_info().misses == built == 1

    def test_options_do_not_leak(self, capsys, tmp_path):
        ground = [str(i) for i in range(6)]
        path = write(tmp_path, "wide.json", {"ground": ground, "sets": [[g] for g in ground]})
        assert run(capsys, "count-sdr", path, "--ceiling", "1")[0] == 3
        code, env, _ = run(capsys, "count-sdr", path)
        assert code == 0 and env["payload"] == {"count": 1}

    def test_verify_then_solve(self, capsys, tmp_path, fam3):
        solved = run(capsys, "sdr", fam3)
        cert = write(tmp_path, "cert.json", solved[1]["payload"])
        code, env, _ = run(capsys, "sdr", fam3, "--verify", cert)
        assert code == 0 and env["payload"]["valid"] is True
        assert run(capsys, "sdr", fam3) == solved

    def test_usage_error_then_valid_call(self, capsys, fam3):
        code, env, _ = run(capsys, "count-sdr", fam3, "--ceiling", "many")
        assert code == 2 and env["diagnostics"].endswith("(field: ceiling)")
        code, env, _ = run(capsys, "count-sdr", fam3)
        assert code == 0 and env["payload"] == {"count": 2}


class TestArgv:
    """`main` reads argv from the command table: every usage error is an
    invalid-input envelope naming a field, and -h or --help prints usage."""

    @pytest.mark.parametrize("argv, field", [
        ((), "command"),
        (("nope",), "command"),
        (("--ceiling", "3", "count-sdr", "FAMILY"), "command"),
        (("sdr",), "family"),
        (("count-sdr", "FAMILY", "--ceiling", "many"), "ceiling"),
        (("sdr", "FAMILY", "--bogus"), "argv"),
        (("sdr", "FAMILY", "--ceiling", "3"), "argv"),
        (("count-sdr", "FAMILY", "--ceil", "3"), "argv"),
        (("sdr", "FAMILY", "--verify"), "verify"),
        (("menger", "GRAPH", "--sink", "t", "--source", "--mode", "edge"), "source"),
        (("menger", "GRAPH", "--source", "s", "--sink", "t", "--mode", "diagonal"), "mode"),
        (("menger", "GRAPH", "--sink", "t"), "source"),
        (("cosets", "GROUP"), "generators"),
        (("sdr", "FAMILY", "FAMILY"), "argv"),
        (("bounds",), "n"),
        (("bounds", "three"), "n"),
    ])
    def test_usage_error_is_an_envelope(self, capsys, tmp_path, argv, field):
        files = {"FAMILY": write(tmp_path, "family.json", FAMILY),
                 "GRAPH": write(tmp_path, "graph.json", VALID_INPUTS["menger"][0][0]),
                 "GROUP": write(tmp_path, "group.json", VALID_INPUTS["cosets"][0][0])}
        code, env, err = run(capsys, *(files.get(a, a) for a in argv))
        assert code == 2 and env["status"] == "invalid-input" and env["payload"] is None
        assert env["diagnostics"].endswith(f"(field: {field})")
        assert err == env["diagnostics"] + "\n"

    @pytest.mark.parametrize("flag", [("--verify", ""), ("--verify=",)])
    def test_empty_certificate_path_is_refused(self, capsys, fam3, flag):
        code, env, _ = run(capsys, "sdr", fam3, *flag)
        assert code == 2 and env["diagnostics"].endswith("(field: certificate)")

    def test_flag_forms_agree(self, capsys, tmp_path):
        graph = write(tmp_path, "graph.json", VALID_INPUTS["menger"][0][0])
        expected = run(capsys, "menger", graph, "--source", "s", "--sink", "t")
        assert expected[0] == 0
        for argv in (("--source=s", graph, "--sink", "t"),
                     ("--sink", "t", "--source", "zz", graph, "--source", "s"),
                     ("--source", "s", "--sink=t", "--mode", "vertex", "--", graph)):
            assert run(capsys, "menger", *argv) == expected
        code, env, _ = run(capsys, "bounds", "-3")
        assert code == 2 and env["diagnostics"] == "n must be positive (field: n)"
        code, env, _ = run(capsys, "latin-count", "--ceiling=-1", "3")
        assert code == 2 and env["diagnostics"] == "--ceiling -1 is negative (field: ceiling)"

    def test_help_prints_usage(self, capsys):
        assert cli.main(["--help"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2] for line in lines] == list(cli._COMMANDS)
        assert cli.main(["menger", "graph.json", "-h"]) == 0
        assert capsys.readouterr().out == (
            "usage: transversal menger graph --source SOURCE --sink SINK"
            " [--mode edge|vertex] [--verify CERT]\n")

    def test_entry_point(self, capsys, fam3):
        src = os.path.dirname(os.path.dirname(inspect.getfile(cli)))

        def python(*argv):
            return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  timeout=60, env={**os.environ, "PYTHONPATH": src})

        probe = python("-c", "import sys, transversal.cli; print('argparse' in sys.modules)")
        assert probe.stdout == "False\n"
        listed = python("-m", "transversal.cli", "--help")
        assert listed.returncode == 0 and len(listed.stdout.splitlines()) == 21
        assert all(f"usage: transversal {name} " in listed.stdout for name in cli._COMMANDS)
        usage = python("-m", "transversal.cli", "sdr", "--help")
        assert usage.returncode == 0
        assert usage.stdout == "usage: transversal sdr family [--verify CERT]\n"
        solved = python("-m", "transversal.cli", "sdr", fam3)
        assert solved.returncode == cli.main(["sdr", fam3]) == 0
        assert solved.stdout == capsys.readouterr().out

class TestCertificateBoundary:
    @pytest.mark.parametrize("command, cert", [
        ("matching", {"edges": [1]}),
        ("sdr", {"reps": [["a"], "b"]}),
        ("sdr", {"reps": ["a"]}),
        ("menger", {"paths": [["s", "zz", "t"]], "cut": ["a"]}),
        ("latin-extend", {"n": 2, "rows": [1]}),
    ])
    def test_malformed_certificate_rejected(self, capsys, tmp_path, command, cert):
        objs, extra = VALID_INPUTS[command]
        path = write(tmp_path, "cert.json", cert)
        code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--verify", path))
        assert code == 1 and env["payload"]["valid"] is False
        assert env["payload"]["reason"]

    @pytest.mark.parametrize("command, objs, cert", [
        ("latin-extend", [{"n": 2, "rows": []}], {"n": 1, "rows": [[1]]}),
        ("latin-complete", [{"n": 2, "rows": []}], {"n": 1, "rows": [[1]]}),
        ("birkhoff", [{"n": 1, "entries": [["1"]]}],
         {"terms": [{"coefficient": "1", "permutation": [-1]}]}),
        ("perfect", [C5], {"witness": [0, 1, 2, 3, 4, "zz"]}),
        ("maxflow", VALID_INPUTS["maxflow"][0],
         {"value": True, "flow": [["s", "t", 1]], "cut": [["s", "t"]]}),
        ("maxflow", VALID_INPUTS["maxflow"][0],
         {"value": 1, "flow": [["s", "t", 1], ["q", "r", 7]], "cut": [["s", "t"]]}),
    ])
    def test_forged_certificate_rejected(self, capsys, tmp_path, command, objs, cert):
        path = write(tmp_path, "cert.json", cert)
        code, env, _ = run_on(capsys, tmp_path, command, objs, ("--verify", path))
        assert code == 1 and env["payload"]["valid"] is False

    def test_bad_endpoint_is_invalid_input_before_the_certificate(self, capsys, tmp_path):
        objs, _ = VALID_INPUTS["menger"]
        path = write(tmp_path, "cert.json", {"paths": [], "cut": []})
        code, env, _ = run_on(capsys, tmp_path, "menger", objs,
                              ("--source", "zz", "--sink", "t", "--verify", path))
        assert code == 2 and env["status"] == "invalid-input"

    @pytest.mark.parametrize("command, forge", [
        ("sdr", lambda c: {"reps": c["reps"][::-1]}),
        ("defect", lambda c: {**c, "partial": {"0": "a", "1": "a"}}),
        ("array-sdr", lambda c: {"grid": [["b"]]}),
        ("matching", lambda c: {**c, "edges": [["y", "x"]]}),
        ("cover", lambda c: {**c, "cover": {"partA": [], "partB": []}}),
        ("menger", lambda c: {**c, "cut": []}),
        ("maxflow", lambda c: {**c, "value": c["value"] + 1}),
        ("dilworth", lambda c: {**c, "antichain": ["a", "b"]}),
        ("mirsky", lambda c: {**c, "chain": c["chain"][::-1]}),
        ("perfect", lambda c: {**c, "witness": c["witness"][:3]}),
        ("birkhoff", lambda c: {"terms": [{**t, "coefficient": "1/2"} for t in c["terms"]]}),
        ("latin-extend", lambda c: {**c, "rows": c["rows"][:1]}),
        ("latin-complete", lambda c: {"n": 3, "rows": [[1, 2, 3]]}),
        ("youden", lambda c: {"array": [row[::-1] for row in c["array"]]}),
        ("rado", lambda c: {"reps": c["reps"][::-1]}),
        ("cosets", lambda c: {**c, "reps": c["reps"] * 2}),
        ("hyper-sdr", lambda c: {"selection": []}),
    ])
    def test_round_trip_and_forgery(self, capsys, tmp_path, command, forge):
        # The perfect graph of VALID_INPUTS has no witness to round-trip.
        objs, extra = ([C5], ()) if command == "perfect" else VALID_INPUTS[command]
        code, env, _ = run_on(capsys, tmp_path, command, objs, extra)
        assert code in (0, 1)
        cert = env["payload"]
        for payload, expect in ((cert, 0), (forge(cert), 1)):
            path = write(tmp_path, "cert.json", payload)
            code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--verify", path))
            assert code == expect and env["payload"]["valid"] is (expect == 0)

    @pytest.mark.parametrize("command, key", [
        ("matching", "size"), ("cover", "size"), ("menger", "count"), ("birkhoff", "term_bound"),
    ])
    def test_stated_size_is_checked(self, capsys, tmp_path, command, key):
        """A size field of the payload is checked against what it counts:
        dropped, the certificate is refused naming the field; one more, it
        does not verify."""
        objs, extra = VALID_INPUTS[command]
        cert = run_on(capsys, tmp_path, command, objs, extra)[1]["payload"]
        dropped = {k: v for k, v in cert.items() if k != key}
        for forged, named in ((dropped, True), ({**cert, key: cert[key] + 1}, False)):
            path = write(tmp_path, "cert.json", forged)
            code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--verify", path))
            assert code == 1 and env["payload"]["valid"] is False, forged
            assert env["payload"]["reason"].endswith(f"(field: {key})") is named

    @pytest.mark.parametrize("key", ["subgroup", "left", "right", "family"])
    def test_every_cosets_field_is_checked(self, capsys, tmp_path, key):
        """On S_4 with H = <(2,1,3,4)>, which is not normal: a field of the
        payload dropped, shortened by one entry or given one more is
        refused, and so are left and right blocks swapped, while blocks
        each rotated still verify."""
        s4 = [{"degree": 4, "permutations": [[2, 1, 3, 4], [2, 3, 4, 1]]}]
        extra = ("--generators", "[[2, 1, 3, 4]]")
        cert = run_on(capsys, tmp_path, "cosets", s4, extra)[1]["payload"]
        value = cert[key]
        if key == "family":
            shorter = {"ground": value["ground"][:-1], "sets": value["sets"][:-1]}
            longer = {"ground": [*value["ground"], len(value["ground"])],
                      "sets": [*value["sets"], value["sets"][-1]]}
        else:
            shorter, longer = value[:-1], [*value, value[-1]]
        rotated = {**cert, "left": [c[1:] + c[:1] for c in cert["left"]],
                   "right": [c[1:] + c[:1] for c in cert["right"]]}
        swapped = {**cert, "left": cert["right"], "right": cert["left"]}
        dropped = {k: v for k, v in cert.items() if k != key}
        for forged, expect in ((cert, 0), (rotated, 0), (swapped, 1), (dropped, 1),
                               ({**cert, key: shorter}, 1), ({**cert, key: longer}, 1)):
            path = write(tmp_path, "cert.json", forged)
            code, env, _ = run_on(capsys, tmp_path, "cosets", s4, (*extra, "--verify", path))
            assert code == expect and env["payload"]["valid"] is (expect == 0), forged

    @pytest.mark.parametrize("command, cert", [
        ("cover", {"matching": [["x", "u"], ["y", "v"]], "cover": {"partA": ["x", "y"], "partB": []},
                   "size": 9}),
        ("matching", {"edges": [["x", "u"]], "size": 7}),
    ])
    def test_size_that_counts_nothing_rejected(self, capsys, tmp_path, command, cert):
        graph = {"partA": ["x", "y"], "partB": ["u", "v"], "edges": [["x", "u"], ["y", "v"]]}
        path = write(tmp_path, "cert.json", cert)
        code, env, _ = run_on(capsys, tmp_path, command, [graph], ("--verify", path))
        assert code == 1 and env["payload"]["reason"] == "size differs from the number of edges"

    @pytest.mark.parametrize("command, objs", [
        ("perfect", VALID_INPUTS["perfect"][0]),
        ("hyper-sdr", [{"vertices": ["1", "2"], "hypergraphs": [[["1", "2"]], [["1", "2"]]]}]),
    ])
    def test_uncertified_answer_rejected_with_a_reason(self, capsys, tmp_path, command, objs):
        """A perfect graph and a hypergraph family with no SDR get answers
        that carry nothing a checker can read: fed back through --verify,
        each is refused with that reason, not with a shape error."""
        cert = write(tmp_path, "cert.json", run_on(capsys, tmp_path, command, objs)[1]["payload"])
        code, env, _ = run_on(capsys, tmp_path, command, objs, ("--verify", cert))
        assert code == 1 and env["payload"]["valid"] is False
        assert env["payload"]["reason"].endswith("carries no certificate a checker can read")

    @pytest.mark.parametrize("value", ["1e99999999", "-1e99999999", "1E+99_999_999"])
    @pytest.mark.parametrize("command", ["permanent", "birkhoff", "birkhoff-certificate"])
    def test_huge_rational_hits_the_ceiling(self, capsys, tmp_path, command, value):
        matrix = {"n": 1, "entries": [["1"] if command.endswith("certificate") else [value]]}
        argv = [command.split("-")[0], write(tmp_path, "m.json", matrix)]
        if command.endswith("certificate"):
            cert = {"terms": [{"coefficient": value, "permutation": [0]}]}
            argv += ["--verify", write(tmp_path, "cert.json", cert)]
        refused_within_a_second(capsys, *argv)

    def test_handlers_do_not_read_certificates(self):
        """Only `main` reads --verify, and only to hand the path to `_verify`,
        which hands the certificate to nothing but the library checker: no
        loader or solver of the command table sees the arguments or a
        certificate, so every check lives in the library, beside its solver."""
        tree = ast.parse(inspect.getsource(cli))
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        solvers = {command.solve.__name__ for command in cli._COMMANDS.values()}
        assert len(cli._COMMANDS) == 21 and len(solvers) == 21 and solvers <= set(defs)

        def loads(node, name):
            return [n for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == name]

        def passed_to(node, callee):  # the nodes handed as arguments to calls of `callee`
            return {id(a) for n in ast.walk(node) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name) and n.func.id in callee for a in n.args}

        for node in tree.body:
            if node not in (defs["main"], defs["_verify"]):
                where = ast.unparse(node).split("\n")[0]
                assert not loads(node, "args") and not loads(node, "cert"), where
                assert not any(isinstance(n, ast.Attribute) and n.attr == "verify"
                               for n in ast.walk(node)), where
        main = defs["main"]
        reads = [n for n in ast.walk(main) if isinstance(n, ast.Attribute) and n.attr == "verify"]
        assert reads and {id(n) for n in reads} <= passed_to(main, {"_verify"})
        verify = defs["_verify"]
        uses = [n for n in loads(verify, "cert") if isinstance(n.ctx, ast.Load)]
        assert len(uses) == 2
        assert {id(n) for n in uses} <= passed_to(verify, {"isinstance", "check"})

    @pytest.mark.parametrize("command", ["sdr", "defect", "rado"])
    def test_violator_union_lists_each_element_once(self, capsys, tmp_path, command):
        """Every violator check reads the stated union by one rule: the union
        of the named sets, each element once.  Sets 0 and 1 are {a}; stated
        as ["a"] the violator verifies, stated as ["a", "a"] it is refused."""
        extra, cert = {"sdr": ([], {}),
                       "defect": ([], {"defect": 1, "partial": {"0": "a", "2": "b"}}),
                       "rado": ([{"kind": "free", "ground": ["a", "b", "c"]}], {"rank": 1}),
                       }[command]
        objs = [{"ground": ["a", "b", "c"], "sets": [["a"], ["a"], ["b", "c"]]}, *extra]
        for union, expect in ((["a"], 0), (["a", "a"], 1)):
            path = write(tmp_path, "cert.json", {**cert, "indices": [0, 1], "union": union})
            code, env, _ = run_on(capsys, tmp_path, command, objs, ("--verify", path))
            assert code == expect, env
        assert env["payload"]["reason"] == "stated union repeats an element"

    @pytest.mark.parametrize("size", ["empty", "one"])
    @pytest.mark.parametrize("command", sorted(c.name for c in cli._COMMANDS.values() if c.check))
    def test_edge_inputs_round_trip(self, capsys, tmp_path, command, size):
        """The answer on the empty input, and on a one-element input, passes
        its own --verify, except an answer that carries no certificate
        (`perfect` true), which is refused with that reason.  Two empty
        inputs have no answer and are refused as invalid input: the 0-by-0
        Latin square has no row to add, and a design with no block has no
        block size; `latin-extend` is fed the rectangle with no rows of
        order 1 instead."""
        objs, extra = EDGE_INPUTS[command][size]
        code, env, _ = run_on(capsys, tmp_path, command, objs, extra)
        if (command, size) == ("youden", "empty"):
            assert code == 2 and env["diagnostics"].endswith("(field: blocks)")
            return
        assert code in (0, 1) and env["payload"] is not None, env
        path = write(tmp_path, "cert.json", env["payload"])
        uncertified = command == "perfect" and env["payload"]["perfect"]
        code, env, _ = run_on(capsys, tmp_path, command, objs, (*extra, "--verify", path))
        if uncertified:
            assert code == 1 and env["payload"]["reason"].endswith("a checker can read")
        else:
            assert code == 0 and env["payload"] == {"valid": True}, env

    def test_one_checker_per_answer(self):
        """Each answer kind has one checker: no public `validate_*` is left
        in the package, every row's check is a `verify_*` of a subject
        module, and every public `verify_*` is the check of exactly one row."""
        subjects = {"core", "graphs", "posets", "latin", "birkhoff", "matroids", "groups",
                    "hypersdr"}
        rows = {}  # public verify_* of the package -> rows that name it
        for info in pkgutil.iter_modules(transversal.__path__):
            module = importlib.import_module(f"transversal.{info.name}")
            tree = ast.parse(inspect.getsource(module))
            names = [n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
            assert not [n for n in names if n.startswith("validate_")], info.name
            rows.update({f"{info.name}.{n.name}": 0 for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name.startswith("verify_")})
        for command in cli._COMMANDS.values():
            if command.check:
                module, name = command.check.split(".")
                assert module in subjects and name.startswith("verify_"), command.check
                assert cli._library(command.check).__module__ == f"transversal.{module}"
                rows[command.check] += 1
        assert len(rows) == 17 and set(rows.values()) == {1}, rows

    def test_parser_follows_the_table(self):
        specs = cli._build_parser()
        assert list(specs) == list(cli._COMMANDS) and len(specs) == 21
        flags = {name: {key for key in spec if isinstance(key, str)}
                 for name, spec in specs.items()}
        verify = {name for name, f in flags.items() if "--verify" in f}
        ceiling = {name for name, f in flags.items() if "--ceiling" in f}
        assert len(verify) == 17 and set(flags) - verify == {
            "count-sdr", "permanent", "bounds", "latin-count"}
        assert ceiling == {
            "count-sdr", "array-sdr", "perfect", "permanent", "latin-count", "hyper-sdr"}
        for name, command in cli._COMMANDS.items():
            assert (name in verify) == bool(command.check)
            assert (name in ceiling) == command.ceiling
            positional = [dest for key, (dest, _) in specs[name].items() if isinstance(key, int)]
            assert positional == [*command.files, *(f for f, _ in command.options
                                                    if not f.startswith("-"))]
            if command.check:
                assert command.check.split(".")[-1].startswith("verify_")
                assert callable(cli._library(command.check))

    def test_library_functions_are_looked_up_when_called(self, capsys, tmp_path, monkeypatch):
        """A wrapper set on a package attribute after import, as a tracer
        sets one, is the one that runs: builders, solvers and checkers."""
        called = []

        def spy(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: called.append(name) or real(*a, **k))

        for owner, name in ((core, "hall_check"), (core, "verify_sdr"),
                            (matroids, "matroid_from_json"), (matroids, "verify_rado")):
            spy(owner, name)
        objs, _ = VALID_INPUTS["rado"]
        family = write(tmp_path, "family.json", objs[0])
        matroid = write(tmp_path, "matroid.json", objs[1])
        assert run(capsys, "sdr", family)[0] == 0
        cert = write(tmp_path, "cert.json", run(capsys, "rado", family, matroid)[1]["payload"])
        assert run(capsys, "sdr", family, "--verify", cert)[0] == 0
        assert run(capsys, "rado", family, matroid, "--verify", cert)[0] == 0
        assert called == ["hall_check", "matroid_from_json", "verify_sdr",
                          "matroid_from_json", "verify_rado"]
