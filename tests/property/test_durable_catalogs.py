"""Snapshot + journal replay equals the in-memory registry — the law.

The durable :class:`~repro.serve.catalogs.CatalogRegistry` must be a
*transparent* persistence layer: after any script of
register/update/remove operations, recovering from the state directory
yields exactly the catalogs (names, each catalog's view names in
registration order, and Merkle content roots) an in-memory registry
holds after the same script — through compaction, across restarts, and
at **every** crash point: truncating the journal at any record boundary
recovers exactly that prefix of operations, and truncating mid-record
recovers the floor boundary with the torn tail dropped.  Scripts
include updates the registry refuses; a refused update journals nothing
and must leave the in-memory catalog as recovery rebuilds it, order
included (registration order picks each Section 5.2 class
representative).
"""

import shutil

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.errors import ReproError
from repro.serve.catalogs import CatalogRegistry
from repro.serve.journal import JOURNAL_NAME, scan_journal

NAMES = ["t0", "t1", "t2"]
PREDICATES = ["a", "b", "c"]
#: A two-view registration, then a refused update each way one fails.
REFUSED = [
    [("register", 0, 1), ("update_refused", 0, 0)],
    [("register", 0, 1), ("update_refused", 0, 1)],
]


@st.composite
def scripts(draw):
    """A random register/update/remove script (abstract, pre-resolution)."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(
            st.sampled_from(
                ["register", "update_add", "update_remove",
                 "update_replace", "update_refused", "remove"]
            )
        )
        ops.append(
            (
                kind,
                draw(st.integers(min_value=0, max_value=len(NAMES) - 1)),
                draw(st.integers(min_value=0, max_value=7)),
            )
        )
    return ops


def _body(salt):
    predicate = PREDICATES[salt % len(PREDICATES)]
    args = "X, Y" if salt % 2 == 0 else "Y, X"
    return f"{predicate}({args})"


def _resolve(script):
    """Turn the abstract script into concrete registry calls.

    Runs the script against a scratch in-memory registry, so every
    emitted ``(method, kwargs, accepted)`` triple records whether the
    registry accepts the call at its position.  Ops that cannot be
    formed (a removal or replacement in an unknown or empty catalog)
    are dropped.  Refused calls are kept: an ``update_refused`` op
    removes a view and then fails, on a missing view or a duplicate
    name.  Accepted calls are exactly the journaled ones — the property
    the prefix oracles below rely on.
    """
    scratch = CatalogRegistry()
    concrete = []
    counter = 0
    for kind, name_idx, salt in script:
        name = NAMES[name_idx]
        if kind == "register":
            # Two views on odd salts, so refused updates have an order
            # to disturb.
            width = 1 + salt % 2
            call = (
                "register",
                {
                    "name": name,
                    "views": [
                        f"v{counter + i}(X, Y) :- {_body(salt + i)}"
                        for i in range(width)
                    ],
                },
            )
            counter += width
        elif kind == "update_add":
            call = (
                "update",
                {"name": name,
                 "add": [f"v{counter}(X, Y) :- {_body(salt)}"]},
            )
            counter += 1
        elif kind in ("update_remove", "update_replace", "update_refused"):
            try:
                views = scratch.get(name).names()
            except ReproError:
                continue
            if not views:
                continue
            target = views[salt % len(views)]
            if kind == "update_remove":
                call = ("update", {"name": name, "remove": [target]})
            elif kind == "update_refused":
                # Remove the first view, then fail on a missing view or
                # on a name still registered.
                first, last = views[0], views[-1]
                if salt % 2 == 0 or first == last:
                    change = {"remove": [first, "ghost"]}
                else:
                    change = {
                        "remove": [first],
                        "add": [f"{last}(X, Y) :- {_body(salt)}"],
                    }
                call = ("update", {"name": name, **change})
            else:
                call = (
                    "update",
                    {"name": name,
                     "replace": [f"{target}(X, Y) :- {_body(salt)}"]},
                )
        else:
            call = ("remove", {"name": name})
        concrete.append((*call, _run(scratch, call)))
    return concrete


def _run(registry, call):
    """Apply one concrete call; whether *registry* accepted it."""
    method, kwargs = call[:2]
    try:
        getattr(registry, method)(**kwargs)
    except ReproError:
        return False
    return True


def _state(registry):
    """Catalog name -> (view names in registration order, content root)."""
    return {
        name: (registry.get(name).names(), registry.get(name).content_root())
        for name in registry.names()
    }


def _oracle(concrete):
    """:func:`_state` after *concrete* on an in-memory registry."""
    registry = CatalogRegistry()
    for call in concrete:
        assert _run(registry, call) == call[2]
    return _state(registry)


def _through(concrete, accepted):
    """The longest prefix of *concrete* holding *accepted* accepted calls."""
    taken = 0
    for position, call in enumerate(concrete):
        if call[2]:
            if taken == accepted:
                return concrete[:position]
            taken += 1
    return concrete


def _recovered(state_dir):
    registry = CatalogRegistry(state_dir=state_dir, journal_fsync=False)
    try:
        assert registry.quarantined_names() == ()
        return _state(registry)
    finally:
        registry.close()


def _durable(state, concrete, snapshot_every):
    """Run *concrete* on a durable registry, checking each outcome."""
    durable = CatalogRegistry(
        state_dir=state, journal_fsync=False, snapshot_every=snapshot_every
    )
    for call in concrete:
        assert _run(durable, call) == call[2]
    durable.close()


class TestDurableEqualsInMemory:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scripts())
    @example(REFUSED[0])
    @example(REFUSED[1])
    def test_recovery_matches_at_every_record_boundary(self, tmp_path, script):
        concrete = _resolve(script)
        state = tmp_path / "state"
        if state.exists():
            shutil.rmtree(state)
        _durable(state, concrete, snapshot_every=10_000)

        # Full-journal recovery equals the in-memory oracle.
        assert _recovered(state) == _oracle(concrete)

        # Crash at every record boundary: each prefix of the journal
        # recovers exactly that prefix of operations.  Without
        # compaction, journal record i IS accepted op i.
        journal = state / JOURNAL_NAME
        records = scan_journal(journal).records
        assert len(records) == sum(call[2] for call in concrete)
        boundaries = [0] + [record.end_offset for record in records]
        data = journal.read_bytes() if journal.exists() else b""
        for count, boundary in enumerate(boundaries):
            crashed = tmp_path / f"crash-{count}"
            if crashed.exists():
                shutil.rmtree(crashed)
            shutil.copytree(state, crashed)
            (crashed / JOURNAL_NAME).write_bytes(data[:boundary])
            assert _recovered(crashed) == _oracle(
                _through(concrete, count)
            ), (
                f"journal truncated at record boundary {count} must "
                f"recover exactly the first {count} operations"
            )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scripts(), st.integers(min_value=1, max_value=1_000_000))
    def test_mid_record_crash_recovers_the_floor_boundary(
        self, tmp_path, script, tear
    ):
        concrete = _resolve(script)
        state = tmp_path / "state"
        if state.exists():
            shutil.rmtree(state)
        _durable(state, concrete, snapshot_every=10_000)
        journal = state / JOURNAL_NAME
        records = scan_journal(journal).records
        if not records:
            return
        # Tear somewhere strictly inside one record: pick the record and
        # the cut from the drawn integer, deterministically.
        index = tear % len(records)
        start = 0 if index == 0 else records[index - 1].end_offset
        width = records[index].end_offset - start
        cut = start + 1 + (tear % max(1, width - 1))
        data = journal.read_bytes()
        journal.write_bytes(data[:cut])

        registry = CatalogRegistry(state_dir=state, journal_fsync=False)
        try:
            assert registry.quarantined_names() == ()
            assert registry.journal_truncations == 1
            recovered = _state(registry)
        finally:
            registry.close()
        assert recovered == _oracle(_through(concrete, index)), (
            "a tear inside record "
            f"{index + 1} must recover the floor boundary ({index} ops)"
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(scripts())
    @example(REFUSED[0])
    @example(REFUSED[1])
    def test_recovery_matches_through_compaction(self, tmp_path, script):
        concrete = _resolve(script)
        state = tmp_path / "compacted"
        if state.exists():
            shutil.rmtree(state)
        _durable(state, concrete, snapshot_every=2)
        # Recovery now mixes the snapshot path and the journal-tail
        # path; the composite must still equal the in-memory oracle.
        assert _recovered(state) == _oracle(concrete)
        # And recovery is idempotent: recovering the recovered state
        # (which may itself have compacted) changes nothing.
        assert _recovered(state) == _oracle(concrete)
