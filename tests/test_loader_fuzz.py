"""Single-field mutations of the builtin descriptions, run through the CLI:
each either runs or exits 2 with one line on stderr, never a traceback."""

import contextlib
import io
import itertools
import json
import math
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

import tisim as t
from tisim.cli import main as cli_main

# description -> a path expression that resolves on the unmutated network
DESCRIPTIONS = {
    "qle": (t.network_to_dict(t.qle_network()), "|L-S1-B-S2-D>"),
    "hardy": (t.network_to_dict(t.hardy_network()), "|L-S1-S2-D>"),
    "qle-two-laser": (t.network_to_dict(t.two_laser_variant(t.qle_network())), "|L-S1-B-S2-D>"),
}


def field_paths(node, prefix=()):
    """The path (keys and indices from the root) of every field below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*prefix, key)
        yield from field_paths(child, (*prefix, key))


def value_at(doc, path: tuple):
    return reduce(lambda node, key: node[key], path, doc)


TEXTS = {name: json.dumps(doc) for name, (doc, _) in DESCRIPTIONS.items()}
FIELDS = sorted(((name, path) for name, (doc, _) in DESCRIPTIONS.items() for path in field_paths(doc)), key=repr)
# the descriptions' own keys and strings, so a mutant can name an existing id of the wrong kind
WORDS = sorted(
    {x for name, path in FIELDS for x in (*path, value_at(DESCRIPTIONS[name][0], path)) if isinstance(x, str)}
    | {"", "nope", "y+"}
)
DELETE = object()
FILE_NUMBERS = itertools.count()
SCALARS = [None, True, False, 0, 1, -1, 2, 10**30, 10**400, 0.5, -0.0, 1e308, math.nan, math.inf, -math.inf]
VALUES = st.one_of(
    st.just(DELETE),
    st.sampled_from(SCALARS + [[], {}, [[]], [{}]]),
    st.sampled_from(WORDS),
    st.sampled_from([[a, b][: 1 + (a != b)] for a in WORDS for b in WORDS]),  # one word or two
)


def mutant(name: str, path: tuple, value) -> dict:
    """Description ``name`` with the field at ``path`` set to ``value``, or deleted."""
    doc = json.loads(TEXTS[name])
    *parents, last = path
    owner = value_at(doc, parents)
    if value is DELETE:
        del owner[last]
    else:
        owner[last] = value
    return doc


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)  # the same mutants on every run
@given(field=st.sampled_from(FIELDS), value=VALUES)
def test_cli_runs_or_exits_two_on_every_single_field_mutant(tmp_path_factory, field, value):
    name, path = field
    # a new file per mutant: truncating one file for each costs about 0.3 ms a time on an overlay file system
    file = tmp_path_factory.getbasetemp() / f"mutant-{next(FILE_NUMBERS)}.json"
    file.write_text(json.dumps(mutant(name, path, value)))
    expression = DESCRIPTIONS[name][1]
    for argv in (["run", "qle", "--exact", "--network", str(file)], ["path", expression, "--network", str(file)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        message = err.getvalue()
        if code == 0:
            assert message == ""
        else:
            assert code == 2, (argv, message)
            assert message.startswith("error: ") and message.count("\n") == 1, (argv, message)
