"""Seeded inputs: Section 7 catalogs, query lists and the serve schedule.

Every function here is a pure function of the workload seed, so one
seed always yields byte-identical view texts, query texts and frames.
The program under test only ever receives these texts.
"""

from __future__ import annotations

import dataclasses
import random
import re
from dataclasses import dataclass

from repro.datalog.atoms import Atom
from repro.datalog.query import ConjunctiveQuery
from repro.workload import (
    WorkloadConfig,
    chain_query,
    generate_workload,
    star_query,
)

#: Figure 6(a): star views of 1-3 subgoals over 13 binary relations.
STAR_CONFIG = WorkloadConfig(shape="star", num_relations=13, num_views=1000)
#: Figure 8(a): chain views of 1-3 subgoals over 40 binary relations.
CHAIN_CONFIG = WorkloadConfig(shape="chain", num_relations=40, num_views=1000)
#: The paper's query size (Section 7).
QUERY_SUBGOALS = 8
#: Only 33 all-distinguished 8-subgoal chains exist over 40 relations,
#: so chain queries also leave up to this many interior variables out
#: of the head (the Figure 8(b) knob, drawn per query).
MAX_DROPPED = 3

_VARIABLE = re.compile(r"\b([A-Z][A-Za-z0-9_]*)")


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{stream}:{seed}")


def catalog_texts(config: WorkloadConfig, seed: int) -> list[str]:
    """The view texts of one seeded catalog drawn with *config*."""
    workload = generate_workload(dataclasses.replace(config, seed=seed))
    return [str(view.definition) for view in workload.views]


def star_queries(seed: int, count: int) -> list[str]:
    """*count* distinct 8-subgoal star queries over the star relations."""
    rng = _rng(seed, "star-queries")
    seen: set[frozenset[int]] = set()
    texts: list[str] = []
    while len(texts) < count:
        indices = rng.sample(range(STAR_CONFIG.num_relations), QUERY_SUBGOALS)
        key = frozenset(indices)
        if key not in seen:
            seen.add(key)
            texts.append(str(star_query(indices)))
    return texts


def chain_queries(seed: int, count: int, stream: str) -> list[str]:
    """*count* distinct 8-subgoal chain queries over the chain relations.

    The start relation is uniform; 0 to ``MAX_DROPPED`` interior
    variables (never an endpoint) are nondistinguished.
    """
    rng = _rng(seed, stream)
    starts = CHAIN_CONFIG.num_relations - QUERY_SUBGOALS + 1
    seen: set[str] = set()
    texts: list[str] = []
    while len(texts) < count:
        query = chain_query(rng.randrange(starts), QUERY_SUBGOALS)
        interior = list(query.head.args[1:-1])
        dropped = set(rng.sample(interior, rng.randint(0, MAX_DROPPED)))
        head = Atom(
            query.head.predicate,
            tuple(var for var in query.head.args if var not in dropped),
        )
        text = str(ConjunctiveQuery(head, query.body))
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def renamed(view_text: str, tag: int) -> str:
    """*view_text* with every variable renamed by *tag*.

    The definition stays the same view up to variable names, so every
    rewriting is unchanged, while the rendered text — and with it the
    view's content hash and the catalog root — changes.
    """
    return _VARIABLE.sub(lambda match: f"{match.group(1)}u{tag}", view_text)


@dataclass(frozen=True)
class Frame:
    """One open-loop frame: a read of query ``item`` or update ``item``."""

    kind: str
    item: int


@dataclass(frozen=True)
class ServeInputs:
    """The serve workload's seeded frames."""

    #: Open-loop frames in send order.
    schedule: tuple[Frame, ...]
    #: ``(view index, replacement text)`` per update, in send order.
    updates: tuple[tuple[int, str], ...]
    #: Query-pool index sequence per closed-loop connection.
    closed: tuple[tuple[int, ...], ...]


def serve_inputs(
    seed: int,
    *,
    frames: int,
    update_share: float,
    pool: int,
    views: list[str],
    connections: int,
    closed_reads: int,
) -> ServeInputs:
    """Open-loop schedule, update texts and closed-loop read orders."""
    rng = _rng(seed, "serve-schedule")
    update_count = round(frames * update_share)
    positions = set(rng.sample(range(1, frames), update_count))
    schedule: list[Frame] = []
    updates: list[tuple[int, str]] = []
    for position in range(frames):
        if position in positions:
            index = rng.randrange(len(views))
            schedule.append(Frame("update", len(updates)))
            updates.append((index, renamed(views[index], len(updates))))
        else:
            schedule.append(Frame("read", rng.randrange(pool)))
    closed = tuple(
        tuple(rng.randrange(pool) for _ in range(closed_reads))
        for _ in range(connections)
    )
    return ServeInputs(tuple(schedule), tuple(updates), closed)
