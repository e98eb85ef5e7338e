"""The exit contract holds for any document: a seeded fuzz of the demo model and trade through ``cli.run``.

Each example changes one or two leaves of ``demos/config``'s model or trade
document: it scales a number, puts any JSON value in its place, or deletes
it. Then it runs every command in process on the result.
Whatever the documents hold, ``run`` returns 0, 1, 2 or 3 and raises
nothing; a failure prints one stderr line, or only ``violation:`` lines; a
report is strict JSON; and numpy warns of nothing.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from xccy.cli import run

CONFIG = Path(__file__).resolve().parents[1] / "demos" / "config"
DOCS = {name: json.loads((CONFIG / f"{name}.json").read_text()) for name in ("model", "trade")}
COMMANDS = ("validate", "simulate", "price", "bsde", "check")
DELETE = object()


class Scale(float):
    """Multiply a numeric leaf by this factor; another leaf is left as it is."""


def _leaves(doc, path=()):
    """The key paths of every leaf of a JSON document: a scalar, or an empty list or object."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    items = list(items)
    if not items:
        yield path
    for key, value in items:
        yield from _leaves(value, path + (key,))


LEAVES = [(name, path) for name, doc in DOCS.items() for path in _leaves(doc)]
NUMBERS = st.one_of(
    st.floats(),  # NaN, the infinities, signed zeros, subnormals and 1e308 included
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, 1, -1, 0.5, 2.0, 1e-300, 1e6, 1e308, -1e308]),
)
SCALARS = st.one_of(NUMBERS, st.text(max_size=6), st.booleans(), st.none())
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=2),
)
# half of the changes scale a number, so that about half of the documents still validate and run
SCALES = st.builds(Scale, st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 2.0, 10.0, 1e3, 1e300]))
CHANGES = st.one_of(st.just(DELETE), VALUES, SCALES, SCALES)
MUTATIONS = st.lists(st.tuples(st.sampled_from(LEAVES), CHANGES), min_size=1, max_size=2)


def _mutated(mutations):
    """Copies of the documents with each (leaf, value) applied in turn; a leaf an earlier change removed is skipped."""
    docs = json.loads(json.dumps(DOCS))
    for (name, path), value in mutations:
        parent = docs[name]
        try:
            for key in path[:-1]:
                parent = parent[key]
            if path:
                parent[path[-1]]  # noqa: B018 - the leaf must still be there
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(value, Scale):
            leaf = parent[path[-1]] if path else parent
            if isinstance(leaf, (int, float)) and not isinstance(leaf, bool):
                value = leaf * float(value)
            else:
                continue
        if not path:
            docs[name] = {} if value is DELETE else value
        elif value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return docs


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _check_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(argv)
    # risky collateral on an asset correlated with the trade warns by design; numpy may warn of nothing
    numpy_warnings = [w for w in caught if not issubclass(w.category, UserWarning) or "numpy" in w.filename]
    assert not numpy_warnings, (argv, [str(w.message) for w in numpy_warnings])
    assert code in (0, 1, 2, 3), (argv, code)
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 or lines and all(line.startswith("violation: ") for line in lines), (argv, lines)
    elif argv[0] != "validate":
        _strict_json(out.getvalue())


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(MUTATIONS)
def test_every_command_keeps_the_exit_contract_on_a_mutated_document(mutations):
    docs = _mutated(mutations)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in docs.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        for command in COMMANDS:
            argv = [command, "--model", paths["model"]]
            if command in ("price", "bsde"):
                argv += ["--trade", paths["trade"]]
            if command != "validate":
                argv += ["--paths", "200", "--steps", "4"]
            _check_run(argv)
