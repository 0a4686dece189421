"""NER mention detection + relation extraction.

:func:`page_relations_batch` is the ``map_batches`` stage. Its
:class:`PageRelations` state compiles the patterns once per worker
process (the reference's analog is per-pool state like the reused HTTP
client, ``/root/reference/src/rdf.rs:41``), then every batch is
processed with the compiled machinery.

Output keeps triples **nested per page row** (``triples:
list<struct<subj_surface, pred, obj_surface, obj_is_literal>>``) so the
downstream serialize-per-version step needs **no shuffle** — the page is
the unit of locality, exactly like the reference's one-file-per-graph
worktree (``src/graphs.rs:42-45``).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..corpus import P_ACQUIRED, P_FOUNDED, P_HQ, P_PARTNERS

# A mention: capitalized token optionally joined by spaces/hyphens/'&'/'and'.
MENTION = r"[A-Z][\w&'.-]*(?:(?:\s+(?:&|and)\s+|\s+|-)[A-Z][\w&'.-]*)*"
_MENTION_RE = re.compile(MENTION)
_STOP_SPANS = frozenset(
    {"The", "A", "An", "It", "In", "On", "At", "No", "This", "About", "Home"}
)

TRIPLE_STRUCT = pa.struct(
    [
        ("subj_surface", pa.string()),
        ("pred", pa.string()),
        ("obj_surface", pa.string()),
        ("obj_is_literal", pa.bool_()),
    ]
)
RAW_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("s")),
        ("digest", pa.binary()),
        ("lang", pa.string()),
        ("triples", pa.list_(TRIPLE_STRUCT)),
    ]
)


class MentionDetector:
    """Gazetteer-free span detector: capitalized multi-word spans."""

    def __init__(self) -> None:
        self.pattern = _MENTION_RE

    def detect(self, text: str):
        out = []
        for m in self.pattern.finditer(text):
            span = m.group(0)
            if span in _STOP_SPANS or len(span) < 3:
                continue
            out.append(span)
        return out

    def is_mention(self, span: str) -> bool:
        return (
            span not in _STOP_SPANS
            and len(span) >= 3
            and self.pattern.fullmatch(span) is not None
        )


class PageRelations:
    """text → per-page nested raw triples (surfaces, pre-linking)."""

    def __init__(self) -> None:
        self.detector = MentionDetector()
        m = MENTION
        self.patterns = [
            (re.compile(rf"^({m}) acquired ({m})\.$"), P_ACQUIRED, False),
            (re.compile(rf"^({m}) partners with ({m})\.$"), P_PARTNERS, False),
            (re.compile(rf"^({m}) is headquartered in ({m})\.$"), P_HQ, False),
            (re.compile(rf"^({m}) was founded in (\d{{4}})\.$"), P_FOUNDED, True),
        ]

    def extract_relations(self, text: str):
        triples = []
        for line in text.split("\n"):
            for pat, pred, obj_literal in self.patterns:
                mt = pat.match(line)
                if mt is None:
                    continue
                subj, obj = mt.group(1), mt.group(2)
                if not self.detector.is_mention(subj):
                    continue
                if not obj_literal and not self.detector.is_mention(obj):
                    continue
                triples.append(
                    {
                        "subj_surface": subj,
                        "pred": pred,
                        "obj_surface": obj,
                        "obj_is_literal": obj_literal,
                    }
                )
                break
        return triples

    def __call__(self, batch: pa.Table) -> pa.Table:
        nested = [self.extract_relations(t) for t in batch["text"].to_pylist()]
        return pa.table(
            {
                "url": batch["url"],
                "warc_ts": batch["warc_ts"],
                "digest": batch["digest"],
                "lang": batch["lang"],
                "triples": pa.array(nested, pa.list_(TRIPLE_STRUCT)),
            }
        ).cast(RAW_SCHEMA)


# compiled patterns memoized per worker process, so the stage runs on the
# shared warm task pool with zero actor-spawn latency
_PAGE_RELATIONS: PageRelations | None = None


def page_relations_batch(batch: pa.Table) -> pa.Table:
    global _PAGE_RELATIONS
    if _PAGE_RELATIONS is None:
        _PAGE_RELATIONS = PageRelations()
    return _PAGE_RELATIONS(batch)
