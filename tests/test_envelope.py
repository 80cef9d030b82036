"""The envelope contract on random input files.

Whatever JSON value a subcommand reads, it answers with exactly one JSON
object on stdout and an exit code in 0..3, and an exit 2 names a field; an
uncaught exception fails the test.  Objects are drawn with the keys of each file format, so the values
reach the constructors instead of stopping at a missing key.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import VALID_INPUTS
from transversal import cli, matroids

# Integers stay small: files may name sizes (a Latin width, a permutation
# degree), and large sizes belong to the resource-limit contract.  The
# rational strings reach each branch of the matrix entry parser: signs,
# zero denominators, whitespace, underscores, decimals, Unicode digits and a
# denominator of 2000 digits.
RATIONALS = ["+3/6", "-0/5", "1/0", " 2/3", "1_0/3", "1.5", "\u0663/2", "1/" + "7" * 2000]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 4),
    st.sampled_from(["a", "b", "1", "1/2", *RATIONALS])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["a", "b", "1"]), inner, max_size=3),
    ),
    max_leaves=12,
)


def document(*keys):
    """A random JSON value, most often an object with some of `keys`."""
    return st.one_of(VALUES, st.fixed_dictionaries({}, optional=dict.fromkeys(keys, VALUES)))


FAMILY = document("ground", "sets")
BIPARTITE = document("partA", "partB", "edges")
GRAPH = document("vertices", "edges")
POSET = document("elements", "less_than")
MATRIX = document("n", "entries")
RECTANGLE = document("n", "rows", "alphabet")
# A matroid file of each kind carries all of that kind's parameters.
MATROID = st.one_of(document("kind"), *(
    st.fixed_dictionaries({"kind": st.just(kind), **dict.fromkeys(names, VALUES)})
    for kind, (_, names) in matroids._KINDS.items()
))

# subcommand -> (a strategy for each file it reads, extra arguments)
COMMANDS = {
    "sdr": ((FAMILY,), ()),
    "defect": ((FAMILY,), ()),
    "count-sdr": ((FAMILY,), ()),
    "array-sdr": ((document("ground", "grid"),), ()),
    "matching": ((BIPARTITE,), ()),
    "cover": ((BIPARTITE,), ()),
    "menger": ((GRAPH,), ("--source", "a", "--sink", "b")),
    "maxflow": ((document("source", "sink", "edges", "nodes"),), ()),
    "dilworth": ((POSET,), ()),
    "mirsky": ((POSET,), ()),
    "perfect": ((GRAPH,), ()),
    "birkhoff": ((MATRIX,), ()),
    "permanent": ((MATRIX,), ()),
    "latin-extend": ((RECTANGLE,), ()),
    "latin-complete": ((RECTANGLE,), ()),
    "youden": ((document("points", "blocks"),), ()),
    "rado": ((st.one_of(FAMILY, st.just({"ground": ["a"], "sets": [["a"]]})), MATROID), ()),
    "cosets": ((document("elements", "table", "permutations", "degree"),),
               ("--generators", '["a"]')),
    "hyper-sdr": ((document("vertices", "hypergraphs"),), ()),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_input_keeps_the_envelope(command, data):
    files, extra = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, strategy in enumerate(files):
            path = os.path.join(tmp, f"in{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data.draw(strategy), fh)
            paths.append(path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *paths, *extra])
    assert code in (0, 1, 2, 3)
    assert out.getvalue().count("\n") == 1
    envelope = json.loads(out.getvalue())
    assert isinstance(envelope, dict)
    assert code != 2 or "(field: " in envelope["diagnostics"], envelope["diagnostics"]


# Certificate values name the labels of the VALID_INPUTS problems, so that
# drawn certificates get past the shape checks into the real ones.
CERT_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1, 4), st.sampled_from(
    ["a", "b", "e", "s", "t", "x", "y", "1", "1/2"]))
CERT_VALUES = st.recursive(
    CERT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["0", "1", "partA", "partB", "coefficient",
                                         "permutation"]), inner, max_size=3),
    ),
    max_leaves=12,
)
# subcommand -> the keys of the payload it emits, hence of its certificate
CERT_KEYS = {
    "sdr": ("reps", "indices", "union"),
    "defect": ("defect", "partial", "indices", "union"),
    "array-sdr": ("grid",),
    "matching": ("edges", "size"),
    "cover": ("matching", "cover", "size"),
    "menger": ("paths", "cut", "count"),
    "maxflow": ("value", "cut", "flow"),
    "dilworth": ("chains", "antichain"),
    "mirsky": ("antichains", "chain"),
    "perfect": ("perfect", "berge", "witness"),
    "birkhoff": ("terms", "term_bound"),
    "latin-extend": ("n", "rows", "alphabet"),
    "latin-complete": ("n", "rows", "alphabet"),
    "youden": ("array",),
    "rado": ("reps", "indices", "union", "rank"),
    "cosets": ("subgroup", "left", "right", "reps", "family"),
    "hyper-sdr": ("selection", "witness"),
}


@pytest.mark.parametrize("command", sorted(CERT_KEYS))
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_random_certificate_is_checked_not_crashed(command, data):
    """Any JSON object given to --verify is accepted (0) or rejected (1)."""
    objs, extra = VALID_INPUTS[command]
    keys = CERT_KEYS[command]
    cert = data.draw(st.fixed_dictionaries({}, optional=dict.fromkeys(keys, CERT_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, obj in enumerate([*objs, cert]):
            paths.append(os.path.join(tmp, f"in{k}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, *paths[:-1], *extra, "--verify", paths[-1]])
    assert code in (0, 1)
    assert out.getvalue().count("\n") == 1
    assert isinstance(json.loads(out.getvalue()), dict)
