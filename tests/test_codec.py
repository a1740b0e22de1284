"""The payload codec: canonical JSON with allow-listed dataclasses.

Task payloads cross every process and host boundary (store entries, the
HTTP store, the serve daemon's ``task`` and ``result`` ops) as
:func:`~repro.pipeline.hashing.canonical_json`, read back through
:func:`~repro.pipeline.hashing.revive`.  These tests pin the round trip —
as a property and on the real outputs of every experiment task at tiny
scale — the refusal of any type outside the allow-list by both stores, and
the rule that nothing under ``src/repro`` imports ``pickle``.
"""

import ast
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transfer import TransferOutcome
from repro.experiments import ExperimentConfig
from repro.experiments.plans import available_experiments, plan_experiment
from repro.experiments.reporting import TableResult
from repro.metrics.attack_metrics import AttackOutcome
from repro.metrics.summary import BestAverageWorst, CaseSummary
from repro.pipeline import RemoteStore, ResultStore, merge_graphs, run_graph
from repro.pipeline.hashing import canonical_json, revive
from repro.pipeline.store_http import StoreServerThread
from repro.visualization.figures import FigureArtifacts

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

ALLOW_LIST = {"AttackOutcome", "BestAverageWorst", "CaseSummary",
              "FigureArtifacts", "TableResult", "TransferOutcome"}

#: A checksummed entry naming a type outside the allow-list.
FOREIGN = b'{"__dataclass__":"Popen","args":["touch","owned"]}'


def _round_trip(payload):
    return revive(json.loads(canonical_json(payload)))


# ---------------------------------------------------------------------- #
# Round trip
# ---------------------------------------------------------------------- #
_text = st.text(max_size=8)
_floats = st.floats(allow_nan=False, allow_infinity=False)
_maybe = st.none() | _floats
_scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
            | _floats | _text)
_cases = st.builds(CaseSummary, _floats, _floats, _floats)
_rows = st.lists(st.dictionaries(_text, _scalars, max_size=3), max_size=3)
_dataclasses = st.one_of(
    st.builds(AttackOutcome, _floats, _floats, _floats, _floats, _floats,
              psr=_maybe, oob_accuracy=_maybe, oob_aiou=_maybe,
              iterations=st.integers(0, 10 ** 6), converged=st.booleans()),
    _cases,
    st.builds(BestAverageWorst, _cases, _cases, _cases, _floats, _floats),
    st.builds(TransferOutcome, _floats, _floats, _floats, _floats,
              st.integers(0, 1000)),
    st.builds(FigureArtifacts, st.none() | _text, _text, _text, _floats,
              _floats),
    st.builds(TableResult, _text, _text, _rows,
              st.none() | st.lists(_text, max_size=3),
              st.dictionaries(_text, _scalars, max_size=3)),
)
_payloads = st.recursive(
    _scalars | _dataclasses,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_text, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_revive_inverts_canonical_json(payload):
    text = canonical_json(payload)
    assert revive(json.loads(text)) == payload
    # The bytes are a fixed point: re-encoding a decoded payload (what a
    # remote daemon or a warm run does) reproduces them exactly.
    assert canonical_json(revive(json.loads(text))) == text


def test_every_tiny_task_output_round_trips(tmp_path):
    """Every output of every experiment's tasks at tiny scale decodes equal
    to itself, from the codec and from the store, and the dataclasses in
    those outputs are exactly the allow-list."""
    config = ExperimentConfig.tiny(cache_dir=str(tmp_path / "cache"))
    graph = merge_graphs([plan_experiment(name, config)
                          for name in available_experiments()])
    store = ResultStore(str(tmp_path / "store"))
    result = run_graph(graph, config, jobs=2, store=store)
    assert result.succeeded
    stored = set(store.keys())
    found = set()
    for record in result.report.records:
        output = result.outputs[record.task_id]
        assert _round_trip(output) == output, record.task_id
        if record.key in stored:
            assert store.get(record.key) == output, record.task_id
        found |= set(re.findall(r'"__dataclass__":"(\w+)"',
                                canonical_json(output)))
    assert len(stored) > 50
    assert found == ALLOW_LIST


# ---------------------------------------------------------------------- #
# Refusal
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("value", [
    {"__dataclass__": "Popen", "args": ["touch", "x"]},
    {"nested": [{"__dataclass__": "os.system"}]},
    {"__dataclass__": ["AttackOutcome"]},
    {"__dataclass__": "AttackOutcome", "not_a_field": 1},
])
def test_revive_refuses_tags_outside_the_allow_list(value):
    with pytest.raises(ValueError):
        revive(value)


def test_result_store_quarantines_a_foreign_type(tmp_path):
    store = ResultStore(str(tmp_path))
    key = "fe" * 32
    store.put_bytes(key, FOREIGN)
    with pytest.raises(KeyError):
        store.get(key)
    assert store.session_stats()["quarantined"] == 1
    assert not store.contains(key, count=False)
    assert os.path.exists(os.path.join(store.root, "corrupt", key + ".pkl"))


def test_remote_store_reports_a_foreign_type_as_a_miss(tmp_path):
    with StoreServerThread(ResultStore(str(tmp_path))) as url:
        remote = RemoteStore(url)
        key = "fe" * 32
        remote.put_bytes(key, FOREIGN)
        with pytest.raises(KeyError):
            remote.get(key)
        stats = remote.session_stats()
    assert stats["misses"] == 1 and stats["hits"] == 0


# ---------------------------------------------------------------------- #
# No pickle under src/repro
# ---------------------------------------------------------------------- #
def test_no_module_imports_pickle():
    """Payloads cross process and host boundaries as canonical JSON only;
    a ``pickle`` import anywhere under ``src/repro`` would reopen the
    code-execution path that format closed."""
    offenders = []
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(module.split(".")[0] in ("pickle", "_pickle", "cPickle")
                       for module in modules):
                    offenders.append(os.path.relpath(path, SRC))
    assert offenders == []
