"""Property tests: a malformed instance or certificate file fails cleanly.

Each example starts from a valid file and applies one to three mutations at
random places in its JSON tree: drop a key or element, give a value another
type, wrap it in nested lists, or put an out-of-range or repeated vertex
where an integer was. The loader must then either load the file or raise its
own format error, and the CLI must end with exit 0, 1 or 2 and at most one
short stderr line, never a traceback.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deadline_matching import InstanceFormatError, instance_from_json, solve_cover_lp
from deadline_matching.cli import main
from deadline_matching.coverlp import (CertificateFormatError, certificate_from_json,
                                       certificate_to_json)

MUTATIONS = settings(max_examples=300, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])

INSTANCE = {"n": 5, "d": 2,
            "edges": [[1, 2, "3/2"], [1, 4, 2], [2, 3, "1/3"], [3, 5, 4], [4, 5, "5/8"]],
            "sigma": [2, 4, 1, 5, 3], "departures": [0, 2, 1, 2, 0]}
INSTANCE_WITH_MODEL = {"n": 4, "d": 1, "edges": [[1, 2, 1], [2, 3, "7/4"], [3, 4, 2]],
                       "departure_model": {"kind": "tabulated", "pmf": {"0": "1/2", "1": "1/2"}}}
CERTIFICATE = certificate_to_json(solve_cover_lp("lp", 1).certificate)

OTHER_TYPES = [None, True, 1.5, "x", "1/0", "", [], {}, 10**30, -1, "y" * 500,
               {"kind": "geometric"}, [[1, 2, 3]]]


def paths(node):
    """Every place in a JSON tree, the root included, as a key/index path."""
    found, stack = [], [((), node)]
    while stack:
        here, node = stack.pop()
        found.append(here)
        if isinstance(node, dict):
            stack.extend((here + (key,), child) for key, child in node.items())
        elif isinstance(node, list):
            stack.extend((here + (index,), child) for index, child in enumerate(node))
    return found


def parent_of(doc, path):
    """The list or object that holds the place `path` names."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return parent


def integer_paths(node):
    """The paths of the integers in a JSON tree, with their values."""
    for path in paths(node):
        value = node
        for key in path:
            value = value[key]
        if isinstance(value, int) and not isinstance(value, bool):
            yield path, value


@st.composite
def mutated(draw, valid):
    doc = copy.deepcopy(valid)
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["drop", "retype", "nest", "vertex"]))
        integers = list(integer_paths(doc))
        if action == "vertex" and integers:
            path, _ = draw(st.sampled_from(integers))
            new = draw(st.sampled_from([0, -1, valid["n"] + 1, valid["n"] + 2,
                                        *(v for _, v in integers)]))
        else:
            path = draw(st.sampled_from(paths(doc)))
            if action == "drop" and path:
                del parent_of(doc, path)[path[-1]]
                continue
            new = parent_of(doc, path)[path[-1]] if path else doc
            if action == "nest":
                for _ in range(draw(st.sampled_from([1, 2, 20]))):
                    new = [new]
            else:
                new = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        if path:
            parent_of(doc, path)[path[-1]] = new
        else:
            doc = new
    return doc


def run_cli(doc, *argv):
    """Run the CLI on `doc` written to a file; returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, str(path)])
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert err.count("\n") <= 1
    if err:
        assert code != 0 and err.startswith("error: ") and err.endswith("\n")
        assert len(err) - 1 <= 200, err[:300]


@MUTATIONS
@given(st.one_of(mutated(INSTANCE), mutated(INSTANCE_WITH_MODEL)))
def test_mutated_instance_files_fail_cleanly(doc):
    try:
        instance_from_json(doc)
    except InstanceFormatError:
        pass
    assert_clean_exit(*run_cli(doc, "offline", "--instance"))


@MUTATIONS
@given(mutated(CERTIFICATE))
def test_mutated_certificate_files_fail_cleanly(doc):
    try:
        certificate_from_json(doc)
    except CertificateFormatError:
        pass
    code, err = run_cli(doc, "verify-cert", "--target", "cycle:8:1", "--cert")
    assert_clean_exit(code, err)
