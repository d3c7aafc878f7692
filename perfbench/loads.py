"""The four workloads: inputs from a seed, set-up, one closed-loop step,
and the oracles that check every answer.

Each workload is one client in a closed loop: it sends its next
operation only after the previous reply arrived, as an ORM caller does.
Inputs come from ``random.Random(seed)`` only; the program sees the
generated data, never the seed.  Expected answers are computed in plain
Python from the generator's own rows (or the running model of them
under ``write_mix`` deltas), outside the timed region, so no oracle
goes through the mapping compiler.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import itertools
import json
import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.algebra.conditions import TRUE, Comparison
from repro.bench.fig10 import build_model, suite_for
from repro.compiler import compile_mapping, optimize_views
from repro.edm import Entity
from repro.edm.instances import ClientState
from repro.errors import ReproError
from repro.incremental import CompiledModel
from repro.incremental.delta import DeltaRecorder
from repro.mapping.roundtrip import apply_update_views
from repro.msl import dumps_model
from repro.query import EntityQuery
from repro.service import wire
from repro.service.core import SessionService
from repro.service.http import make_server
from repro.session import OrmSession
from repro.stategen import random_client_state
from repro.workloads.chain import chain_mapping, entity_name, set_name
from repro.workloads.paper_example import mapping_stage4

from layers import diff, flatten, summed

#: SQLite reader pool: no larger than the machine's cores
POOL_SIZE = max(1, min(2, os.cpu_count() or 1))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: run artefacts (per-op latencies, spans, the verdict cache); git-ignored
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class Recorder:
    """Latencies and outcomes of the measured operations."""

    def __init__(self) -> None:
        #: (kind, seconds, first touch?, tag) per operation, in order; the
        #: tag names the variant (request shape, SMO label, probe)
        self.ops: List[Tuple[str, float, bool, str]] = []
        self.failed = 0
        self.wrong = 0
        self.notes: Dict[str, int] = {}
        self.client: Dict[str, float] = {}

    def add(self, kind: str, seconds: float, first: bool = False, tag: str = "") -> None:
        self.ops.append((kind, seconds, first, tag))

    def fail(self, note: str, wrong: bool = False) -> None:
        """A failed operation; *wrong* marks a wrong answer (not merely
        an error or a refused request)."""
        self.failed += 1
        self.wrong += int(wrong)
        self.note(note)

    def note(self, note: str) -> None:
        self.notes[note] = self.notes.get(note, 0) + 1

    def count(self, key: str, amount: float) -> None:
        self.client[key] = self.client.get(key, 0.0) + amount


# ---------------------------------------------------------------------------
# The HTTP side: one in-process server, one keep-alive client
# ---------------------------------------------------------------------------

class Served:
    """A :class:`SessionService` behind ``make_server`` on a thread."""

    def __init__(self, backend: str) -> None:
        self.service = SessionService(default_backend=backend, pool_size=POOL_SIZE)
        self.server = make_server(self.service)
        # a short poll keeps shutdown() (one per set-up) from idling
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, payload=None, rec: Optional[Recorder] = None):
        """(status, decoded body)."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body, headers)
        response = self.conn.getresponse()
        raw = response.read()
        if rec is not None:
            rec.count("bytes_out", len(raw))
            if 400 <= response.status < 500:
                rec.count("status_4xx", 1)
            elif response.status >= 500:
                rec.count("status_5xx", 1)
        return response.status, json.loads(raw)

    def stats(self, tenant: str) -> Dict[str, float]:
        status, body = self.call("GET", f"/tenants/{tenant}/stats")
        if status != 200:
            raise RuntimeError(f"stats request failed: {status} {body}")
        return flatten(body)

    def close(self) -> None:
        self.conn.close()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=30)
        self.service.close()


def _new_tenant(served: Served, model: CompiledModel, backend: str) -> OrmSession:
    """Register tenant ``t`` from the model document, as a client would."""
    served.service.create_tenant(
        "t", json.loads(dumps_model(model)), backend=backend, pool_size=POOL_SIZE
    )
    return served.service.session("t")


# ---------------------------------------------------------------------------
# read_zipf_*: the Figure-1 model under Zipf-distributed point reads
# ---------------------------------------------------------------------------

PERSONS = 3_000
ZIPF_S = 1.1
GOLDEN = (5 ** 0.5 - 1) / 2
SHAPES = ("by_id", "by_name", "by_score")


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = list(itertools.accumulate(1.0 / (k ** s) for k in range(1, n + 1)))
    total = weights[-1]
    return [w / total for w in weights]


class ReadZipf:
    """Read-only traffic: the three wire-expressible request shapes in
    turn, each binding drawn from Zipf(1.1) over every person."""

    #: the defining operation is a first touch of a (shape, binding)
    op_kind = "first"
    #: nominal seconds per step (one request) on the reference machine
    step_seconds = 0.082

    def __init__(self, backend: str, persons: int = PERSONS) -> None:
        self.backend = backend
        self.persons = persons

    def generate(self, seed: int) -> None:
        rng = random.Random(seed)
        mapping = mapping_stage4()
        self.model = CompiledModel(
            mapping, optimize_views(mapping, compile_mapping(mapping).views)
        )
        state = ClientState(self.model.client_schema)
        self.by_id: Dict[int, Tuple] = {}
        self.by_name: Dict[str, List[Tuple]] = {}
        self.by_score: Dict[int, List[Tuple]] = {}
        employees: List[int] = []
        for i in range(self.persons):
            kind = rng.randrange(3)
            name = f"{'pec'[kind]}{rng.randrange(self.persons)}"
            if kind == 0:
                entity = Entity.of("Person", Id=i, Name=name)
            elif kind == 1:
                entity = Entity.of(
                    "Employee", Id=i, Name=name, Department=f"d{rng.randrange(7)}"
                )
                employees.append(i)
            else:
                score = rng.randrange(300, 850)
                entity = Entity.of(
                    "Customer", Id=i, Name=name, CredScore=score, BillAddr=f"addr {i}"
                )
                self.by_score.setdefault(score, []).append((i, name, score))
            state.add_entity("Persons", entity)
            self.by_id[i] = (i, name)
            self.by_name.setdefault(name, []).append((i, name))
            if kind == 2 and employees:
                state.add_association("Supports", (i,), (rng.choice(employees),))
        self.state = state
        # The request stream: shapes in turn, bindings by Zipf rank
        # through a seeded permutation of the persons.  Ranks come from a
        # golden-ratio sequence with a seeded offset instead of
        # independent draws: the seed decides which keys are hot, while
        # the share of repeats in a run of a given length stays put, so
        # run-to-run spread reflects the program, not the dice.
        cdf = _zipf_cdf(self.persons, ZIPF_S)
        people = list(range(self.persons))
        rng.shuffle(people)
        names = sorted(self.by_name)
        scores = sorted(self.by_score)
        offset = rng.random()
        self.stream = []
        for n in range(20_000):
            u = (offset + n * GOLDEN) % 1.0
            rank = bisect.bisect_left(cdf, u)
            person = people[rank]
            shape = SHAPES[n % 3]
            if shape == "by_id":
                binding = person
            elif shape == "by_name":
                binding = names[person % len(names)]
            else:
                binding = scores[person % len(scores)]
            self.stream.append((shape, binding))
        self.distinct = len(set(self.stream[:400]))

    def setup(self):
        served = Served(self.backend)
        session = _new_tenant(served, self.model, self.backend)
        session.save(self.state)  # bulk load through SaveChanges
        self.store_rows = session.backend.row_count()
        return {"served": served, "next": 0, "seen": set()}

    def teardown(self, ctx) -> None:
        ctx["served"].close()

    def harvest(self, ctx) -> Dict[str, float]:
        return ctx["served"].stats("t")

    @staticmethod
    def request(shape: str, binding) -> Dict[str, object]:
        if shape == "by_id":
            return {"set": "Persons", "where": f"Id = {binding}", "project": ["Id", "Name"]}
        if shape == "by_name":
            return {"set": "Persons", "where": f"Name = '{binding}'",
                    "project": ["Id", "Name"]}
        return {"set": "Persons", "where": f"CredScore = {binding}",
                "project": ["Id", "Name", "CredScore"]}

    def expected(self, shape: str, binding) -> List[Tuple]:
        if shape == "by_id":
            row = self.by_id.get(binding)
            return [row] if row else []
        if shape == "by_name":
            return sorted(self.by_name.get(binding, ()))
        return sorted(self.by_score.get(binding, ()))

    def step(self, ctx, rec: Recorder, timer) -> None:
        shape, binding = self.stream[ctx["next"] % len(self.stream)]
        ctx["next"] += 1
        payload = self.request(shape, binding)
        first = (shape, binding) not in ctx["seen"]
        ctx["seen"].add((shape, binding))
        with timer() as t:
            status, body = ctx["served"].call("POST", "/tenants/t/query", payload, rec)
        rec.add("query", t.seconds, first, shape)
        if status != 200:
            rec.fail(f"query_status_{status}")
            return
        got = sorted(tuple(row[a] for a in payload["project"]) for row in body["rows"])
        rec.count("rows_returned", len(got))
        if got != self.expected(shape, binding):
            rec.fail("wrong_answer", wrong=True)

    def sizes(self) -> Dict[str, object]:
        return {"store_rows": self.store_rows, "distinct_bindings_first_400": self.distinct}


# ---------------------------------------------------------------------------
# write_mix: the chain model under 16-op deltas and maintained hot reads
# ---------------------------------------------------------------------------

CHAIN_TYPES = 4
ROWS_PER_SET = 25_000
ATT4_VALUES = 97
HOT_PER_SET = 2
OPS_PER_SAVE = 16
READS_PER_SAVE = 4


class WriteMix:
    """One ``save_delta`` of 16 ops, then four reads from a fixed hot set
    of selective filters the result tier maintains."""

    op_kind = "save_delta"
    #: nominal seconds per step (one save_delta and four reads)
    step_seconds = 0.266
    #: a set-up bulk-loads 10^5 rows (several seconds): one before the
    #: measured phase and one after it
    setup_min = 2

    def __init__(self, rows_per_set: int = ROWS_PER_SET) -> None:
        self.rows_per_set = rows_per_set

    def generate(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        mapping = chain_mapping(CHAIN_TYPES)
        self.model = CompiledModel(mapping, compile_mapping(mapping, validate=False).views)
        state = ClientState(self.model.client_schema)
        #: the oracle's model: per set, Id -> (EntityAtt2, EntityAtt3, EntityAtt4)
        self.base: Dict[int, Dict[int, Tuple[str, str, str]]] = {}
        for index in range(1, CHAIN_TYPES + 1):
            rows = {}
            for row in range(self.rows_per_set):
                values = (f"a{rng.randrange(5)}", f"b{row}", f"c{rng.randrange(ATT4_VALUES)}")
                rows[row] = values
                state.add_entity(set_name(index), self._entity(index, row, values))
            self.base[index] = rows
        self.store = apply_update_views(self.model.views, state, self.model.store_schema)
        self.store_rows = self.store.row_count()
        self.hot = {
            index: [f"c{v}" for v in rng.sample(range(ATT4_VALUES), HOT_PER_SET)]
            for index in range(1, CHAIN_TYPES + 1)
        }
        self.hot_queries = [(i, v) for i in self.hot for v in self.hot[i]]

    @staticmethod
    def _entity(index: int, row: int, values) -> Entity:
        a2, a3, a4 = values
        return Entity.of(
            entity_name(index), Id=row, EntityAtt2=a2, EntityAtt3=a3, EntityAtt4=a4
        )

    @staticmethod
    def _op_json(op: str, index: int, row: int, values=None) -> Dict[str, object]:
        if op == "delete":
            return {"op": "delete", "set": set_name(index), "key": [row]}
        a2, a3, a4 = values
        return {
            "op": op,
            "set": set_name(index),
            "entity": {
                "type": entity_name(index),
                "values": {"Id": row, "EntityAtt2": a2, "EntityAtt3": a3, "EntityAtt4": a4},
            },
        }

    def setup(self):
        served = Served("sqlite")
        _new_tenant(served, self.model, "sqlite").engine.replace_contents(self.store)
        # the oracle's model, indexed by (set, EntityAtt4) so checking a
        # read costs the size of its answer, not of the set
        by_att4: Dict[Tuple[int, str], Dict[int, Tuple[str, str, str]]] = {}
        for index, rows in self.base.items():
            for row, values in rows.items():
                by_att4.setdefault((index, values[2]), {})[row] = values
        ctx = {
            "served": served,
            "model": {i: dict(rows) for i, rows in self.base.items()},
            "by_att4": by_att4,
            "rng": random.Random(self.seed + 1),
            "round": 0,
            "fresh": [],
            "next_id": self.rows_per_set,
            "reads": 0,
        }
        # lazy set-up the loop must not pay: first touch of every hot
        # query (tier populate) and the first save_delta (which seeds the
        # incremental write state).  The warm-up delta rewrites rows
        # with their current values, so the data is unchanged.
        for index, value in self.hot_queries:
            status, _ = served.call("POST", "/tenants/t/query", self._query(index, value))
            if status != 200:
                raise RuntimeError(f"warm-up query failed with {status}")
        warm = [
            self._op_json("update", i, row, self.base[i][row])
            for i in range(1, CHAIN_TYPES + 1)
            for row in (0, 1)
        ]
        status, body = served.call("POST", "/tenants/t/save_delta", {"ops": warm})
        if status != 200:
            raise RuntimeError(f"warm-up save_delta failed: {body}")
        return ctx

    def teardown(self, ctx) -> None:
        ctx["served"].close()

    def harvest(self, ctx) -> Dict[str, float]:
        return ctx["served"].stats("t")

    @staticmethod
    def _query(index: int, value: str) -> Dict[str, object]:
        return {"set": set_name(index), "where": f"EntityAtt4 = '{value}'"}

    def _delta(self, ctx) -> Tuple[List[Dict[str, object]], List[Tuple]]:
        """The next 16 ops — 8 updates of base rows, 4 inserts of fresh
        keys, 4 deletes of the keys the previous round inserted — and
        the same ops as oracle-model changes."""
        rng, model = ctx["rng"], ctx["model"]
        r = ctx["round"]
        ctx["round"] += 1
        ops, changes = [], []
        updates = OPS_PER_SAVE // 2
        inserts = (OPS_PER_SAVE - updates) // 2
        for _ in range(updates):
            index = rng.randrange(1, CHAIN_TYPES + 1)
            row = rng.randrange(self.rows_per_set)
            # half the rewrites move a row into one of its set's hot
            # filters, so maintenance has work to do
            a4 = (rng.choice(self.hot[index]) if rng.random() < 0.5
                  else f"c{rng.randrange(ATT4_VALUES)}")
            values = (f"u{r}", model[index][row][1], a4)
            ops.append(self._op_json("update", index, row, values))
            changes.append((index, row, values))
        for index, row in ctx["fresh"]:
            ops.append(self._op_json("delete", index, row))
            changes.append((index, row, None))
        fresh = []
        for _ in range(inserts):
            index = rng.randrange(1, CHAIN_TYPES + 1)
            row = ctx["next_id"]
            ctx["next_id"] += 1
            values = (f"n{r}", f"b{row}", rng.choice(self.hot[index]))
            ops.append(self._op_json("insert", index, row, values))
            changes.append((index, row, values))
            fresh.append((index, row))
        ctx["fresh"] = fresh
        return ops, changes

    def step(self, ctx, rec: Recorder, timer) -> None:
        served, model = ctx["served"], ctx["model"]
        ops, changes = self._delta(ctx)
        with timer() as t:
            status, body = served.call("POST", "/tenants/t/save_delta", {"ops": ops}, rec)
        rec.add("save_delta", t.seconds)
        if status != 200:
            rec.fail(f"save_delta_status_{status}")
        else:
            rec.count("rows_written", body["applied"])
            for index, row, values in changes:
                old = model[index].pop(row, None)
                if old is not None:
                    del ctx["by_att4"][(index, old[2])][row]
                if values is not None:
                    model[index][row] = values
                    ctx["by_att4"].setdefault((index, values[2]), {})[row] = values
        for _ in range(READS_PER_SAVE):
            index, value = self.hot_queries[ctx["reads"] % len(self.hot_queries)]
            ctx["reads"] += 1
            with timer() as t:
                status, body = served.call(
                    "POST", "/tenants/t/query", self._query(index, value), rec
                )
            rec.add("query", t.seconds)
            if status != 200:
                rec.fail(f"query_status_{status}")
                continue
            got = sorted(
                (r["values"]["Id"], r["values"]["EntityAtt2"], r["values"]["EntityAtt3"],
                 r["values"]["EntityAtt4"])
                for r in body["rows"]
            )
            rec.count("rows_returned", len(got))
            want = sorted((k,) + v for k, v in ctx["by_att4"].get((index, value), {}).items())
            if got != want:
                rec.fail("wrong_answer", wrong=True)

    def sizes(self) -> Dict[str, object]:
        return {"store_rows": self.store_rows, "hot_queries": len(self.hot_queries)}


# ---------------------------------------------------------------------------
# evolve_suite: the Figure-10 SMO mix, evolve + undo, with probe reads
# ---------------------------------------------------------------------------

CUSTOMER_SCALE = 0.25
CUSTOMER_SEED = 7
ENTITIES_PER_SET = 100
PROBE_SETS = 6


def reference_verdict(model: CompiledModel, smo) -> bool:
    """Whether the full compiler accepts the SMO's adapted fragments.

    The SMO's own hooks adapt the schemas and fragments on a recorder;
    its incremental validation is skipped, and ``compile_mapping(...,
    validate=True)`` on the result is the reference."""
    recorder = DeltaRecorder(model)
    try:
        smo.check_preconditions(recorder.working)
        smo.evolve_schemas(recorder)
        smo.adapt_fragments(recorder)
        compile_mapping(recorder.working.mapping, validate=True)
    except ReproError:
        return False
    return True


def _required_attribute_owner(smo) -> Optional[str]:
    """The entity type an SMO adds a non-nullable attribute to, if any."""
    attribute = getattr(smo, "attribute", None)
    if attribute is None or attribute.nullable:
        return None
    return smo.entity_type


class EvolveSuite:
    """The SMO suite in a cycle.  A step is one SMO: evolve, probe, and
    (when accepted) undo and probe again.  Each pass over the suite runs
    on a fresh SQLite tenant, built between steps outside the measured
    time."""

    op_kind = "evolve"
    #: nominal seconds per step (one SMO with its probes and undo); a
    #: run is whole passes over the suite
    step_seconds = 0.8

    def __init__(self, entities_per_set: int = ENTITIES_PER_SET) -> None:
        self.entities_per_set = entities_per_set

    def generate(self, seed: int) -> None:
        self.seed = seed
        self.base = build_model(CUSTOMER_SCALE, CUSTOMER_SEED)
        self.suite = suite_for(CUSTOMER_SCALE, CUSTOMER_SEED)
        self.steps_per_round = len(self.suite)
        schema = self.base.client_schema
        # a fixed slice of the sets, so the share of probes an SMO's
        # neighbourhood touches is set by the suite, not by the seed
        self.probe_sets = [s.name for s in schema.entity_sets][:PROBE_SETS]
        # the verdict oracle, once: the full compiler on each SMO's
        # adapted fragments.  A required attribute added to a type that
        # has rows cannot be migrated, so refusing it is correct too
        # (checked per pass, against that pass's data).
        self.required_owner = {
            label: _required_attribute_owner(factory(self.base))
            for label, factory in self.suite
        }
        self.reference = self._reference_verdicts()
        self.pass_states: Dict[int, Tuple[ClientState, Dict, Dict]] = {}

    def _reference_verdicts(self) -> Dict[str, bool]:
        """The reference verdict per suite label.

        Eight full compilations take about ten seconds and depend only on
        the program and this file, so they are cached under a hash of
        both: the first run in a checkout computes them, later runs read
        them."""
        digest = hashlib.sha256()
        sources = [os.path.abspath(__file__)]
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
            sources += [os.path.join(folder, f) for f in sorted(files) if f.endswith(".py")]
        for path in sources:
            digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
        path = os.path.join(OUT_DIR, f"verdicts_{digest.hexdigest()[:16]}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        verdicts = {
            label: reference_verdict(self.base, factory(self.base))
            for label, factory in self.suite
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(verdicts, handle)
        return verdicts

    def _pass_state(self, number: int):
        if number not in self.pass_states:
            schema = self.base.client_schema
            state = random_client_state(
                schema, seed=self.seed * 1009 + number, entities_per_set=self.entities_per_set
            )
            expected = {}
            for set_name_ in self.probe_sets:
                entities = list(state.entities(set_name_))
                key = schema.key_of(schema.entity_set(set_name_).root_type)
                expected[set_name_] = (key, {
                    tuple(e.value_map[k] for k in key): (e.concrete_type,
                                                         tuple(sorted(e.value_map.items())))
                    for e in entities
                })
            types = {e.concrete_type for es in schema.entity_sets
                     for e in state.entities(es.name)}
            accept = {
                label: self.reference[label] and not (
                    owner and types & set(schema.descendants_or_self(owner))
                )
                for label, owner in self.required_owner.items()
            }
            self.pass_states = {number: (state, expected, accept)}
        return self.pass_states[number]

    def _open_pass(self, ctx, number: int) -> None:
        """A fresh tenant loaded with pass *number*'s state."""
        state, ctx["expected"], ctx["accept"] = self._pass_state(number)
        ctx["session"] = OrmSession.create(self.base, backend="sqlite", pool_size=POOL_SIZE)
        ctx["session"].save(state)
        ctx["start"] = _session_stats(ctx["session"])
        ctx["seen"] = set()
        ctx["pass_time"] = 0.0

    def setup(self):
        self.base = build_model(CUSTOMER_SCALE, CUSTOMER_SEED)
        ctx = {"pass": 0, "step": 0, "closed": {}, "pass_seconds": []}
        self._open_pass(ctx, 0)
        return ctx

    def teardown(self, ctx) -> None:
        ctx["session"].engine.close()

    def harvest(self, ctx) -> Dict[str, float]:
        """Stats deltas since set-up, summed over every tenant the passes
        used (each pass closes its tenant and opens a fresh one)."""
        return summed(ctx["closed"], diff(_session_stats(ctx["session"]), ctx["start"]))

    def prepare(self, ctx) -> None:
        """Between steps, outside the measured time: once a pass has
        run every SMO, close its tenant and open the next pass's."""
        if ctx["step"] == 0 or ctx["step"] % len(self.suite):
            return
        ctx["closed"] = summed(ctx["closed"], diff(_session_stats(ctx["session"]), ctx["start"]))
        ctx["session"].engine.close()
        ctx["pass"] += 1
        self._open_pass(ctx, ctx["pass"])

    def _probe(self, ctx, rec: Recorder, timer) -> None:
        """A full scan and a key lookup on each probe set, read once."""
        session, seen = ctx["session"], ctx["seen"]
        for set_name_ in self.probe_sets:
            key, want = ctx["expected"][set_name_]
            some = sorted(want)[len(want) // 2] if want else (0,) * len(key)
            for probe, query, expect in (
                ("scan", EntityQuery(set_name_, TRUE), want),
                ("key", EntityQuery(set_name_, Comparison(key[0], "=", some[0])),
                 {k: v for k, v in want.items() if k[0] == some[0]}),
            ):
                tag = f"{set_name_}:{probe}"
                self._read(session, query, expect, key, rec, timer, tag not in seen, tag)
                seen.add(tag)

    @staticmethod
    def _read(session, query, expect, key, rec: Recorder, timer, first: bool, tag: str) -> None:
        """One probe read, checked against the pass's data."""
        error = None
        with timer() as t:
            try:
                rows = session.query(query)
            except Exception as exc:  # noqa: BLE001 — any error fails the op
                error = exc
        rec.add("query", t.seconds, first, tag)
        if error is not None:
            rec.fail(f"probe_error:{query.set_name}:{type(error).__name__}")
            return
        rec.count("rows_returned", len(rows))
        got = {
            tuple(e.value_map[k] for k in key): (e.concrete_type,
                                                 tuple(sorted(e.value_map.items())))
            for e in rows
        }
        if got != expect or len(rows) != len(expect):
            rec.fail("wrong_answer", wrong=True)

    def step(self, ctx, rec: Recorder, timer) -> None:
        """One SMO of the cycle; a pass's first step probes the fresh
        tenant before it evolves."""
        started = time.perf_counter()
        session = ctx["session"]
        label, factory = self.suite[ctx["step"] % len(self.suite)]
        ctx["step"] += 1
        if not ctx["seen"]:
            self._probe(ctx, rec, timer)
        smo = factory(session.model)
        error = None
        with timer() as t:
            try:
                session.evolve(smo)
            except Exception as exc:  # noqa: BLE001 — a refusal or an error
                error = exc
        rec.add("evolve", t.seconds, tag=label)
        outcome = "accepted" if error is None else f"refused_{type(error).__name__}"
        rec.note(f"{label}:{outcome}")
        if error is not None and ctx["accept"][label]:
            # a false rejection: the safe direction, a failed op
            rec.fail(f"wrong_reject:{label}")
        elif error is None and not ctx["accept"][label]:
            # a false acceptance takes an SMO the reference refuses
            rec.fail(f"wrong_accept:{label}", wrong=True)
        self._probe(ctx, rec, timer)
        if error is None:
            with timer() as t:
                try:
                    session.undo()
                    undo_error = None
                except Exception as exc:  # noqa: BLE001 — any error fails the op
                    undo_error = exc
            rec.add("undo", t.seconds, tag=label)
            if undo_error is not None:
                rec.fail("undo_error")
            self._probe(ctx, rec, timer)
        ctx["pass_time"] += time.perf_counter() - started
        if ctx["step"] % len(self.suite) == 0:
            # a whole pass; last-pass over first-pass time is the drift
            ctx["pass_seconds"].append(ctx["pass_time"])

    def sizes(self) -> Dict[str, object]:
        return {
            "entity_types": len(self.base.client_schema.entity_types),
            "entities_per_set": self.entities_per_set,
            "probe_sets": len(self.probe_sets),
            "reference_accepts": sorted(k for k, v in self.reference.items() if v),
        }


def _session_stats(session: OrmSession) -> Dict[str, float]:
    stats = wire.stats_to_json(session.serving_stats())
    stats["validation_cache"] = wire.stats_to_json(session.cache_stats())
    return flatten(stats)


WORKLOADS = {
    "read_zipf_sqlite": lambda: ReadZipf("sqlite"),
    "read_zipf_memory": lambda: ReadZipf("memory"),
    "write_mix": WriteMix,
    "evolve_suite": EvolveSuite,
}
