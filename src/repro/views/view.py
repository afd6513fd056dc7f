"""View definitions and indexed, versioned view catalogs.

A view is a safe conjunctive query over the base relations (Section 2.1).
As is standard (and as in every example of the paper), view heads must
list distinct variables — the view relation's schema — with no constants
or repeated variables; this keeps view expansion a pure substitution.

The catalog is no longer an opaque list.  It maintains, under one
monotone **version** number:

* a **predicate-signature index** — views keyed by the ``(predicate,
  arity)`` pairs of their relational body atoms — so view-tuple
  computation and the hom-search setup can enumerate only the views
  sharing at least one body predicate with the query
  (:meth:`ViewCatalog.relevant_views`); a view that shares none
  provably contributes no view tuple over the query's canonical
  database (Section 3.3), so the pruning is exact, not heuristic;
* **per-view content hashes** and a Merkle-style **catalog root** over
  them, which is what the plan cache, the catalog auditor and the
  serve journal's replay check key on (two catalogs agree on the root
  exactly when they agree view by view); the root is computed on first
  read after a change; and
* a **delta API** — :meth:`ViewCatalog.add_view` /
  :meth:`ViewCatalog.remove_view` / :meth:`ViewCatalog.replace_view`
  return a :class:`CatalogDelta` recording what changed between two
  consecutive versions, so the catalog drops only the changed names
  from its class memo and compiled forms, and the serve daemon echoes
  exactly what changed in its acknowledgements; and
* a lazily filled :class:`ViewClassMemo` of the Section 5.2 view
  equivalence classes (:attr:`ViewCatalog.class_memo`), which the
  planner's grouping stage fills and reads through one class table per
  catalog version, and every delta prunes; and
* lazily compiled :class:`ViewForms` (:attr:`ViewCatalog.view_forms`):
  each view's definition as a :class:`~repro.engine.evaluate.SlotForm`,
  the join kernel the view-tuple and tuple-core stages run.

Every change takes one path: the three mutators and construction hand
the views they add and remove to one **copy-on-write** successor
builder.  The successor index and view map are built off to the side
and committed with plain attribute assignments only after the
``catalog_delta`` fault-injection point has passed.  A fault (or any
exception) mid-delta therefore leaves the catalog on its old, fully
consistent version — no torn index, no half-registered view.
Construction feeds the builder every view at once, so building n views
copies no dict per view and computes no root.  Published dicts are
never edited in place, so a ``copy.copy`` of a catalog (which shares
them) can be changed without touching the original.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
)

from ..datalog.query import ConjunctiveQuery, MalformedQueryError
from ..datalog.parser import parse_query
from ..datalog.terms import Variable, is_variable
from ..engine.evaluate import SlotForm
from ..errors import DuplicateViewError, UnknownViewError
from ..testing.faults import fire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.context import CacheCounter


@dataclass(frozen=True)
class View:
    """A named materialized view with a conjunctive definition."""

    definition: ConjunctiveQuery

    def __post_init__(self) -> None:
        self.definition.check_safe()
        head_args = self.definition.head.args
        if not all(is_variable(arg) for arg in head_args):
            raise MalformedQueryError(
                f"view {self.name}: head arguments must be variables"
            )
        if len(set(head_args)) != len(head_args):
            raise MalformedQueryError(
                f"view {self.name}: head variables must be distinct"
            )

    @property
    def name(self) -> str:
        """The view's relation name (head predicate)."""
        return self.definition.name

    @property
    def arity(self) -> int:
        """The view relation's arity."""
        return self.definition.arity

    @property
    def head_variables(self) -> tuple[Variable, ...]:
        """The view's distinguished variables in schema order."""
        return tuple(self.definition.head.args)  # all variables by validation

    def existential_variables(self) -> frozenset[Variable]:
        """The view's nondistinguished variables."""
        return self.definition.existential_variables()

    def predicate_signature(self) -> frozenset[tuple[str, int]]:
        """The ``(predicate, arity)`` pairs of the relational body atoms.

        Comparison atoms are not base relations and are excluded; a view
        whose body is comparisons only has an empty signature and is
        treated as relevant to every query (never index-pruned).

        Memoized: the definition is immutable and the signature sits on
        the catalog index's hottest path (every lookup, every audit unit
        key), so it is computed once per :class:`View` instance.
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = frozenset(
                (atom.predicate, atom.arity)
                for atom in self.definition.body
                if not atom.is_comparison
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def __str__(self) -> str:
        return str(self.definition)


def view_content_hash(view: View) -> str:
    """The per-view content hash: SHA-256 over ``name := definition``.

    This is the unit of the catalog's Merkle-style root — a view delta
    changes exactly the hashes of the views it touched.
    """
    return hashlib.sha256(
        f"{view.name} := {view.definition}".encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class CatalogDelta:
    """What one catalog mutation changed, between two consistent versions.

    ``added``/``removed`` carry the actual :class:`View` objects, so a
    consumer sees the definitions that entered and left the catalog
    without keeping its own shadow copy.
    """

    added: tuple[View, ...]
    removed: tuple[View, ...]
    old_version: int
    new_version: int

    @property
    def touched(self) -> int:
        """How many views this delta touched."""
        return len(self.added) + len(self.removed)

    def __str__(self) -> str:
        names = [f"+{view.name}" for view in self.added]
        names += [f"-{view.name}" for view in self.removed]
        return (
            f"CatalogDelta(v{self.old_version}->v{self.new_version}, "
            f"{', '.join(names) or 'empty'})"
        )


class _ClassTable(NamedTuple):
    """A :class:`ViewClassMemo`'s class table at one catalog version."""

    version: int
    #: A bit for each ``(predicate, arity)`` pair the labelled views
    #: mention.
    bits: dict[tuple[str, int], int]
    #: One ``(predicate mask, members)`` row per class of the catalog's
    #: labelled views, in :meth:`ViewClassMemo.group`'s order for the
    #: whole catalog; the mask holds the bits of the class's predicate
    #: signature.
    rows: tuple[tuple[int, tuple[View, ...]], ...]
    #: The catalog's other views, in registration order.
    unlabelled: tuple[View, ...]


class ViewClassMemo:
    """The Section 5.2 view equivalence classes one catalog has computed.

    Which views are equivalent as queries depends only on the catalog, so
    :func:`repro.core.equivalence.group_equivalent_views` groups through
    this memo: a view it has labelled is a lookup, and only unseen views
    are classified.  A label is a signature bucket (views whose minimized
    definitions share a ``signature()``) and a class id within it; each
    class keeps one minimized *anchor* definition to classify the next
    unseen view against.  Labels remember the :class:`View` object they
    were made for, so a view that is not the labelled one (a replaced
    definition under the same name) reads as unseen.

    For the planner's catalog-wide reads (:meth:`relevant_classes`) the
    memo also keeps a **class table**: the classes of the catalog's
    labelled views in the order :meth:`group` yields them for the whole
    catalog, and the views still unlabelled.  It is built on the first
    read, stamped with the catalog's version, and cleared by every
    classification and every :meth:`drop`.

    :attr:`lock` serializes classification: two threads classifying
    equivalent views at once could otherwise open two classes for them.
    """

    __slots__ = (
        "lock", "_labels", "_buckets", "_anchors", "_sizes", "_next_class",
        "_table",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: View name -> ``(view, bucket id, class id)``.
        self._labels: dict[str, tuple[View, int, int]] = {}
        #: Signature -> bucket id (dense, in first-seen order).
        self._buckets: dict[tuple, int] = {}
        #: Bucket id -> ``[(class id, anchor definition)]``, oldest first.
        self._anchors: list[list[tuple[int, ConjunctiveQuery]]] = []
        #: Class id -> labelled members; a class left empty drops its anchor.
        self._sizes: dict[int, int] = {}
        self._next_class = 0
        #: The class table, or ``None`` until the next catalog-wide read.
        self._table: _ClassTable | None = None

    def __len__(self) -> int:
        return len(self._labels)

    def group(
        self,
        views: Iterable[View],
        minimized: Callable[[View], ConjunctiveQuery],
        equivalent: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool],
        counter: "CacheCounter",
    ) -> list[list[View]]:
        """Partition *views* into equivalence classes, in per-call order.

        Unlabelled views are classified: ``minimized(view)`` is bucketed
        by signature and compared with ``equivalent`` against the anchor
        of each class in its bucket.  The classes come back with buckets
        in first-seen order, classes by first-seen member and members in
        input order, so ``members[0]`` is the class's first input view.
        ``counter.hits``/``counter.misses`` count labelled and
        classified views.
        """
        labels = self._labels
        found: list[tuple[View, int, int]] = []
        hits = misses = 0
        with self.lock:
            try:
                for view in views:
                    label = labels.get(view.name)
                    if label is not None and label[0] is view:
                        hits += 1
                    else:
                        misses += 1
                        label = self._classify(view, minimized, equivalent)
                    found.append(label)
            finally:
                counter.hits += hits
                counter.misses += misses
        return _ordered_classes(found)

    def relevant_classes(
        self,
        catalog: "ViewCatalog",
        query: ConjunctiveQuery,
        minimized: Callable[[View], ConjunctiveQuery],
        equivalent: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool],
        counter: "CacheCounter",
    ) -> list[tuple[View, ...]]:
        """``group(catalog.relevant_views(query), ...)``, read off the table.

        *catalog* must own this memo.  Only the relevant views that are
        still unlabelled are classified, in registration order, as
        :meth:`group` would meet them, so the hom searches and the
        counts are :meth:`group`'s.  The answer is then the table's rows
        whose predicate signature :func:`is_relevant` to the query (the
        test runs on bitmasks), as the table's own member tuples.  Equivalent views share one
        predicate signature, and so do all views in one signature
        bucket, because minimization keeps every ``(predicate, arity)``
        pair.  So the relevant views are whole buckets of the table, and
        the table's order restricted to them is :meth:`group`'s order
        over them.
        """
        pairs = relational_pairs(query)
        with self.lock:
            table = self._tabulate(catalog)
            pending = [
                view
                for view in table.unlabelled
                if is_relevant(view.predicate_signature(), pairs)
            ]
            if pending:
                classified = 0
                try:
                    for view in pending:
                        self._classify(view, minimized, equivalent)
                        classified += 1
                except BaseException:
                    # Count what group's walk had reached: the relevant
                    # views before this one, the classified ones among
                    # them as misses, and this one as a miss.
                    stop = pending[classified]
                    reached = 0
                    for view in catalog:
                        if view is stop:
                            break
                        reached += is_relevant(view.predicate_signature(), pairs)
                    counter.hits += reached - classified
                    counter.misses += classified + 1
                    raise
                table = self._tabulate(catalog)
            # is_relevant on bitmasks: this filter is all a call on a
            # fully labelled catalog does.
            if pairs:
                wanted = 0
                for pair in pairs:
                    wanted |= table.bits.get(pair, 0)
                classes = [
                    members
                    for mask, members in table.rows
                    if mask & wanted or not mask
                ]
            else:
                classes = [members for _, members in table.rows]
        counter.hits += sum(map(len, classes)) - len(pending)
        counter.misses += len(pending)
        return classes

    def _tabulate(self, catalog: "ViewCatalog") -> _ClassTable:
        """The class table at *catalog*'s version, rebuilt if stale.

        The version is read before the views: a catalog installs its
        views before it bumps the version, so a table never carries a
        newer stamp than its rows.
        """
        version = catalog.version
        table = self._table
        if table is not None and table.version == version:
            return table
        labels = self._labels
        labelled: list[tuple[View, int, int]] = []
        unlabelled: list[View] = []
        for name, view in catalog._views.items():
            label = labels.get(name)
            if label is not None and label[0] is view:
                labelled.append(label)
            else:
                unlabelled.append(view)
        bits: dict[tuple[str, int], int] = {}
        rows = []
        for members in _ordered_classes(labelled):
            mask = 0
            for pair in members[0].predicate_signature():
                if pair not in bits:
                    bits[pair] = 1 << len(bits)
                mask |= bits[pair]
            rows.append((mask, tuple(members)))
        self._table = table = _ClassTable(
            version, bits, tuple(rows), tuple(unlabelled)
        )
        return table

    def _classify(
        self,
        view: View,
        minimized: Callable[[View], ConjunctiveQuery],
        equivalent: Callable[[ConjunctiveQuery, ConjunctiveQuery], bool],
    ) -> tuple[View, int, int]:
        """Label *view*, forgetting a stale label of its name first."""
        name = view.name
        self._forget(name)
        self._table = None
        definition = minimized(view)
        signature = definition.signature()
        bucket = self._buckets.get(signature)
        if bucket is None:
            bucket = self._buckets[signature] = len(self._anchors)
            self._anchors.append([])
        anchors = self._anchors[bucket]
        for class_id, anchor in anchors:
            if equivalent(definition, anchor):
                break
        else:
            class_id = self._next_class
            self._next_class += 1
            anchors.append((class_id, definition))
        self._sizes[class_id] = self._sizes.get(class_id, 0) + 1
        label = self._labels[name] = (view, bucket, class_id)
        return label

    def drop(self, names: Iterable[str]) -> None:
        """Forget the labels of *names* (a catalog delta touched them)."""
        with self.lock:
            self._table = None
            for name in names:
                self._forget(name)

    def _forget(self, name: str) -> None:
        label = self._labels.pop(name, None)
        if label is None:
            return
        _, bucket, class_id = label
        remaining = self._sizes.pop(class_id) - 1
        if remaining:
            self._sizes[class_id] = remaining
        else:
            anchors = self._anchors[bucket]
            anchors[:] = [a for a in anchors if a[0] != class_id]


def _ordered_classes(labels: Iterable[tuple[View, int, int]]) -> list[list[View]]:
    """Labelled views as classes: buckets in first-seen order, classes
    by first-seen member, members in input order."""
    grouped: dict[int, dict[int, list[View]]] = {}
    for view, bucket, class_id in labels:
        classes = grouped.get(bucket)
        if classes is None:
            classes = grouped[bucket] = {}
        members = classes.get(class_id)
        if members is None:
            classes[class_id] = [view]
        else:
            members.append(view)
    return [
        members for classes in grouped.values() for members in classes.values()
    ]


class ViewForms:
    """Compiled :class:`~repro.engine.evaluate.SlotForm` per view name.

    A view's form depends only on its definition, so a catalog compiles
    each view once, on first use, rather than once per query.  An entry
    answers only for the exact :class:`View` object it was compiled for,
    as class labels do, so a replaced definition under the same name
    compiles afresh.  There is no lock: compiling is pure, and two
    threads compiling one view at once only do the work twice.
    """

    __slots__ = ("_forms",)

    def __init__(self) -> None:
        #: View name -> ``(view, form)``.
        self._forms: dict[str, tuple[View, SlotForm]] = {}

    def __len__(self) -> int:
        return len(self._forms)

    def form(self, view: View) -> SlotForm:
        """*view*'s compiled form, compiled now if this is its first use."""
        definition = view.definition
        # view.name without its two property calls: this runs once per
        # view tuple.
        name = definition.head.predicate
        entry = self._forms.get(name)
        if entry is not None and entry[0] is view:
            return entry[1]
        form = SlotForm(definition)
        self._forms[name] = (view, form)
        return form

    def drop(self, names: Iterable[str]) -> None:
        """Forget the forms of *names* (their views left the catalog)."""
        for name in names:
            self._forms.pop(name, None)


class ViewCatalog:
    """A set of views indexed by name, predicate signature, and content.

    The catalog is what a rewriting is interpreted against: any body
    predicate of a rewriting that names a catalog view is unfolded by
    :func:`repro.views.expansion.expand`.

    Iteration order is registration order, as it always was; the index
    and hashes are bookkeeping on the side and never change what a
    planning run computes — only how much of the catalog it touches.
    """

    def __init__(self, views: Iterable[View | ConjunctiveQuery | str] = ()) -> None:
        self._views: dict[str, View] = {}
        #: ``(predicate, arity)`` -> view names, in registration order.
        self._index: dict[tuple[str, int], tuple[str, ...]] = {}
        #: View name -> registration slot (orders index hits): the
        #: catalog version before the change that added it, plus its
        #: position among that change's new names.  Never reused.
        self._order: dict[str, int] = {}
        #: Monotone catalog version: +1 per view name a change touches.
        self._version = 0
        #: Per-view content hashes (name -> sha256 hex).
        self._hashes: dict[str, str] = {}
        #: Cached Merkle root; ``None`` = compute on next read.
        self._root: str | None = None
        #: Cached names of comparison-only views (empty predicate
        #: signature); ``None`` = rebuild on next index lookup.  These
        #: views join every lookup result, and recomputing them by
        #: scanning the whole catalog made ``views_for_predicates``
        #: O(|V|) per call — quadratic across a whole-catalog audit.
        self._blind: tuple[str, ...] | None = None
        #: Cached ``"name: atom"`` comparison atoms of the view bodies;
        #: ``None`` = rebuild on next :meth:`comparison_atoms` call.
        self._comparisons: tuple[str, ...] | None = None
        #: Section 5.2 view classes, filled by the planner, never here.
        self._classes = ViewClassMemo()
        #: Compiled view forms, filled by the planner, never here.
        self._forms = ViewForms()
        added: dict[str, View] = {}
        for item in views:
            view = as_view(item)
            if view.name in added:
                raise DuplicateViewError(
                    f"duplicate view name {view.name!r}"
                )
            added[view.name] = view
        # One change for every view.  Nothing is published yet, so it
        # installs without firing ``catalog_delta``.
        self._install(*self._successor(tuple(added.values()), ()))

    # -- pickling and copying ------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        """Only what defines the version: the views, their index, order
        and hashes, and the version number.

        The class memo, the compiled forms and the lazily derived root,
        blind names and comparison atoms stay out, so a pickled or
        copied catalog starts with none of them, no task carries them,
        and one version pickles to the same bytes whatever was read from
        it before.
        """
        state = self.__dict__.copy()
        for name in _DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._root = self._blind = self._comparisons = None
        self._classes = ViewClassMemo()
        self._forms = ViewForms()

    @property
    def class_memo(self) -> ViewClassMemo:
        """The catalog's lazily filled Section 5.2 view classes.

        :func:`repro.core.equivalence.group_equivalent_views` fills it
        and reads its class table; every delta clears the table and
        drops the names it adds, removes or replaces.
        """
        return self._classes

    @property
    def view_forms(self) -> ViewForms:
        """The catalog's lazily compiled view forms.

        The planner's view-tuple and tuple-core stages fill it; every
        delta drops the forms of the views it removes or replaces.
        """
        return self._forms

    # -- versioning and content hashes ---------------------------------------
    @property
    def version(self) -> int:
        """Monotone version counter, bumped by every successful mutation.

        Each change advances it by the number of view names it touches,
        so a catalog built from n views is at version n.
        """
        return self._version

    def view_hashes(self) -> Mapping[str, str]:
        """Per-view content hashes (name -> sha256), registration order."""
        return dict(self._hashes)

    def content_root(self) -> str:
        """Merkle-style root over the per-view content hashes.

        The root is the SHA-256 of the sorted per-view hashes, so it is
        independent of registration order and changes exactly when some
        view's rendered definition (or the set of views) changes.  It is
        computed on the first read after a change and cached.
        """
        if self._root is None:
            self._root = catalog_content_root(self._hashes)
        return self._root

    # -- mutation (copy-on-write deltas) --------------------------------------
    def add(self, view: View | ConjunctiveQuery | str) -> View:
        """Register a view given as a :class:`View`, a CQ, or datalog text.

        Raises :class:`~repro.errors.DuplicateViewError` (a
        ``ValueError``) when the name is already taken.
        """
        return self.add_view(view).added[0]

    def add_view(self, view: View | ConjunctiveQuery | str) -> CatalogDelta:
        """Register a view and return the :class:`CatalogDelta`.

        The successor state is built copy-on-write and committed only
        after the ``catalog_delta`` injection point; a fault mid-delta
        leaves the catalog on the old consistent version.
        """
        view = as_view(view)
        if view.name in self._views:
            raise DuplicateViewError(f"duplicate view name {view.name!r}")
        return self._commit((view,), ())

    def remove_view(self, name: str) -> CatalogDelta:
        """Remove the view registered under *name*; return the delta.

        Raises :class:`~repro.errors.UnknownViewError` when absent.
        Copy-on-write like :meth:`add_view`: a fault mid-delta leaves
        the view registered and the index untouched.
        """
        return self._commit((), (self.get(name),))

    def replace_view(self, view: View | ConjunctiveQuery | str) -> CatalogDelta:
        """Swap in a new definition for an existing name; return the delta.

        Equivalent to remove + add under **one** version bump, so pool
        and cache consumers see a single-view delta rather than two.
        The name keeps its registration slot.
        """
        view = as_view(view)
        return self._commit((view,), (self.get(view.name),))

    def _commit(
        self, added: tuple[View, ...], removed: tuple[View, ...]
    ) -> CatalogDelta:
        """Build the successor state, fire ``catalog_delta``, install it.

        ``fire`` sits *before* the install: a chaos fault raised at the
        ``catalog_delta`` point aborts the mutation with every attribute
        still describing the old version.
        """
        delta, state = self._successor(added, removed)
        fire("catalog_delta")
        self._install(delta, state)
        return delta

    def _successor(
        self, added: tuple[View, ...], removed: tuple[View, ...]
    ) -> tuple[CatalogDelta, tuple]:
        """The state after *removed* leave and *added* join, built aside.

        A name in both is replaced in place: it keeps its registration
        slot and its index positions for pairs both definitions mention.
        New names take the slots numbered on from the current version in
        *added* order and join the end of their index tuples, so one
        change adding n views equals n :meth:`add_view` calls.  The
        version advances by the number of names touched, so no slot is
        ever numbered twice.  Published dicts are copied, never edited: a
        ``copy.copy`` of the catalog shares them.
        """
        views = dict(self._views)
        index = dict(self._index)
        order = dict(self._order)
        hashes = dict(self._hashes)
        old = {view.name: view.predicate_signature() for view in removed}
        new = {view.name: view.predicate_signature() for view in added}
        for name, signature in old.items():
            for pair in signature - new.get(name, frozenset()):
                remaining = tuple(n for n in index[pair] if n != name)
                if remaining:
                    index[pair] = remaining
                else:
                    del index[pair]
            if name not in new:
                del views[name], order[name], hashes[name]
        slot = self._version
        joined: dict[tuple[str, int], list[str]] = {}
        for view in added:
            name = view.name
            views[name] = view
            hashes[name] = view_content_hash(view)
            if name not in old:
                order[name] = slot
                slot += 1
            for pair in sorted(new[name] - old.get(name, frozenset())):
                joined.setdefault(pair, []).append(name)
        for pair, names in joined.items():
            index[pair] = index.get(pair, ()) + tuple(names)
        touched = len(old.keys() | new.keys())
        delta = CatalogDelta(
            added=added,
            removed=removed,
            old_version=self._version,
            new_version=self._version + touched,
        )
        return delta, (views, index, order, hashes)

    def _install(self, delta: CatalogDelta, state: tuple) -> None:
        """Install a fully built successor *state* as *delta*'s version.

        The assignments are plain rebinds of already-built objects, so
        there is no observable intermediate state.  The root and the
        other derived caches are recomputed on first read.  The class
        memo and the compiled forms forget the touched names last; a
        lookup in between still misses, because a label or form only
        answers for the exact :class:`View` it was made for.
        """
        self._views, self._index, self._order, self._hashes = state
        self._version = delta.new_version
        self._root = self._blind = self._comparisons = None
        self._classes.drop(view.name for view in delta.added + delta.removed)
        if delta.removed:
            self._forms.drop(view.name for view in delta.removed)

    # -- lookup ----------------------------------------------------------------
    def get(self, name: str) -> View:
        """The view registered under *name*.

        Raises :class:`~repro.errors.UnknownViewError` (a ``KeyError``)
        listing the registered names when absent.
        """
        try:
            return self._views[name]
        except KeyError:
            registered = ", ".join(self._views) or "(none)"
            raise UnknownViewError(
                f"unknown view {name!r}; registered views: {registered}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> tuple[str, ...]:
        """All view names in registration order."""
        return tuple(self._views)

    def definitions(self) -> tuple[ConjunctiveQuery, ...]:
        """All view definitions in registration order."""
        return tuple(view.definition for view in self._views.values())

    def comparison_atoms(self) -> tuple[str, ...]:
        """:func:`comparison_atoms` of the catalog, in registration order.

        Built on first use after a delta, so building a catalog does no
        extra work and a planner checking for comparisons does not
        rescan every view each call.
        """
        if self._comparisons is None:
            self._comparisons = comparison_atoms(self._views.values())
        return self._comparisons

    # -- the predicate-signature index -----------------------------------------
    def indexed_predicates(self) -> frozenset[tuple[str, int]]:
        """Every ``(predicate, arity)`` pair some view's body mentions."""
        return frozenset(self._index)

    def views_for_predicates(
        self, pairs: Iterable[tuple[str, int]]
    ) -> tuple[View, ...]:
        """The views whose body mentions at least one of *pairs*.

        Results come back in registration order.  Views with an empty
        predicate signature (comparison-only bodies) are **always**
        included: the index cannot prove them irrelevant.
        """
        return tuple(self._views[name] for name in self._names_for(pairs))

    def _names_for(self, pairs: Iterable[tuple[str, int]]) -> list[str]:
        """Names of :meth:`views_for_predicates`, registration order."""
        hits: set[str] = set()
        for pair in pairs:
            hits.update(self._index.get(pair, ()))
        if self._blind is None:
            self._blind = tuple(
                name
                for name, view in self._views.items()
                if not view.predicate_signature()
            )
        hits.update(self._blind)
        return sorted(hits, key=self._order.__getitem__)

    def relevant_views(self, query: ConjunctiveQuery) -> tuple[View, ...]:
        """The views sharing at least one body predicate with *query*.

        This is the Section 3.3 pruning set: a view sharing no
        ``(predicate, arity)`` pair with the query has no answer over
        the query's canonical database, hence an empty view-tuple set,
        hence no place in any contained rewriting.  A query with no
        relational atoms keeps the whole catalog (nothing provable).
        """
        pairs = relational_pairs(query)
        if not pairs:
            return tuple(self._views.values())
        return self.views_for_predicates(pairs)

    def relevant_names(self, query: ConjunctiveQuery) -> tuple[str, ...]:
        """Names of :meth:`relevant_views`, registration order."""
        return tuple(view.name for view in self.relevant_views(query))

    def index_neighbors(self, name: str) -> tuple[str, ...]:
        """Names of the views sharing a ``(predicate, arity)`` pair with *name*.

        Registration order, excluding the view itself.  This is the
        catalog-audit unit's visibility set: the pairwise rules (C101/
        C102/C104) only ever compare a view against its index neighbors,
        because containment between views sharing no base predicate is
        impossible (a homomorphism has no atom to map onto) — the same
        exactness argument as :meth:`relevant_views`.  Comparison-only
        views (empty signature) appear in every view's neighbor set, per
        :meth:`views_for_predicates`.
        """
        signature = self.get(name).predicate_signature()
        return tuple(
            neighbor
            for neighbor in self._names_for(signature)
            if neighbor != name
        )

    def names_sharing_predicates(
        self, predicates: Iterable[str]
    ) -> frozenset[str]:
        """Names of views whose body mentions any of the predicate *names*.

        Arity-insensitive (any ``(name, arity)`` index key counts) and,
        unlike :meth:`views_for_predicates`, **excludes** views with an
        empty predicate signature — this answers "shares a base
        predicate with", the static-analysis question (R006), not the
        pruning question.
        """
        wanted = set(predicates)
        hits: set[str] = set()
        for (predicate, _arity), names in self._index.items():
            if predicate in wanted:
                hits.update(names)
        return frozenset(hits)


#: The attributes a :class:`ViewCatalog` derives from the rest, left out
#: of its pickles and copies.
_DERIVED = ("_classes", "_forms", "_root", "_blind", "_comparisons")


def relational_pairs(query: ConjunctiveQuery) -> frozenset[tuple[str, int]]:
    """The ``(predicate, arity)`` pairs of *query*'s relational atoms."""
    return frozenset(
        (atom.predicate, atom.arity)
        for atom in query.body
        if not atom.is_comparison
    )


def is_relevant(
    signature: frozenset[tuple[str, int]], pairs: frozenset[tuple[str, int]]
) -> bool:
    """Whether :meth:`ViewCatalog.relevant_views` keeps a view with
    predicate *signature* for a query with relational *pairs*: they
    share a pair, or one side has none, which proves nothing."""
    return not (signature and pairs) or not signature.isdisjoint(pairs)


def comparison_atoms(views: Iterable[View]) -> tuple[str, ...]:
    """Every comparison atom of the views' bodies, as ``"name: atom"``.

    View order, then body order.
    """
    return tuple(
        f"{view.name}: {atom}"
        for view in views
        for atom in view.definition.body
        if atom.is_comparison
    )


def catalog_content_root(hashes: Mapping[str, str]) -> str:
    """The Merkle-style root of a per-view hash map (see ``content_root``)."""
    digest = hashlib.sha256()
    for view_hash in sorted(hashes.values()):
        digest.update(view_hash.encode("ascii"))
    digest.update(str(len(hashes)).encode("ascii"))
    return digest.hexdigest()


def as_view(view: View | ConjunctiveQuery | str) -> View:
    """Coerce datalog text or a conjunctive query into a :class:`View`."""
    if isinstance(view, View):
        return view
    if isinstance(view, str):
        view = parse_query(view)
    return View(view)
