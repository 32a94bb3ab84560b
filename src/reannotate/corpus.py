"""Loaders and containers for pools, model predictions, gold relabels, and label maps.

All containers are immutable after construction and safe for concurrent
reads. A call may keep a value it built on a PredictionSet, only through
`PredictionSet._keep`. Loading itself is single-threaded per file.
Containers hold columns and build record objects on access. Every label a
load or construction places is the one object `sys.intern` keeps for it, so
equal labels are one str object across containers and loads.
"""

from __future__ import annotations

import json
import re
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, filterfalse, islice, repeat
from operator import is_, itemgetter, le, methodcaller, ne
from pathlib import Path
from sys import intern
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import ParseError, ValidationError
from .hierarchy import LabelHierarchy, _read_json

POOL_FORMATS = ("jsonl", "tacred")
_PARTITIONS = ("train", "dev", "test")
#: Lines per parse and per column check. A chunk's parsed dicts are dropped
#: once its columns are placed, and a chunk the checks doubt costs at most this
#: many record-by-record checks.
_CHUNK = 256


class _EliminatedType:
    """Marker for instances removed from the corpus during relabeling."""

    def __repr__(self) -> str:
        return "ELIMINATED"


#: Gold value meaning the instance was dropped rather than relabeled
#: (serialized as JSON null in gold files).
ELIMINATED = _EliminatedType()


@dataclass(frozen=True)
class Instance:
    """One pool sentence: id, current (possibly noisy) label, opaque extras."""

    id: str
    label: str
    partition: str | None = None
    metadata: Mapping[str, Any] = field(default_factory=dict)


class ReannotationPool:
    """Ordered, id-unique, non-empty collection of instances eligible for relabeling.

    Stored as id, label and partition columns in pool order, plus the
    metadata of the rows that have any; instances are built on access.
    Scoring and the curves read the ``_ids`` and ``_labels`` columns in place.
    """

    def __init__(self, instances: Iterable[Instance]) -> None:
        ids: list[str] = []
        labels: list[str] = []
        partitions: list[str | None] = []
        metadata: dict[int, Mapping[str, Any]] = {}
        for inst in instances:
            if inst.metadata:
                for key, *_ in _POOL_FIELDS:
                    if key in inst.metadata:  # write_pool would write it over the field
                        raise ValidationError(
                            f"instance {inst.id!r} has pool field {key!r} in its metadata"
                        )
                metadata[len(ids)] = inst.metadata
            ids.append(inst.id)
            labels.append(_interned(inst.label))
            partitions.append(inst.partition)
        self._set_columns(ids, labels, partitions, metadata)

    @classmethod
    def _from_columns(cls, ids, labels, partitions, metadata) -> ReannotationPool:
        pool = cls.__new__(cls)
        pool._set_columns(ids, labels, partitions, metadata)
        return pool

    def _set_columns(
        self,
        ids: Iterable[str],
        labels: Iterable[str],
        partitions: Iterable[str | None],
        metadata: dict[int, Mapping[str, Any]],  # row -> extras, for rows that have any
    ) -> None:
        ids, labels, partitions = tuple(ids), tuple(labels), tuple(partitions)
        if not ids:
            raise ValidationError("pool is empty")
        position = dict(zip(ids, range(len(ids))))
        if not (
            len(position) == len(ids)
            and all(ids)
            and all(labels)
            and all(p is None or p in _PARTITIONS for p in set(partitions))
        ):  # rescan for the first defective instance
            seen: set[str] = set()
            for iid, label, partition in zip(ids, labels, partitions):
                if not iid:
                    raise ValidationError("instance with empty id")
                if not label:
                    raise ValidationError(f"instance {iid!r} has an empty label")
                if partition is not None and partition not in _PARTITIONS:
                    raise ValidationError(
                        f"instance {iid!r} has partition {partition!r}, "
                        f"expected one of {_PARTITIONS}"
                    )
                if iid in seen:
                    raise ValidationError(f"duplicate instance id: {iid!r}")
                seen.add(iid)
        self._ids = ids
        self._labels = labels
        self._partitions = partitions
        self._metadata = metadata
        self._position = position

    @cached_property
    def _id_order(self) -> list[int]:
        """Rows in ascending id order; every ranking starts from it."""
        return sorted(range(len(self._ids)), key=self._ids.__getitem__)

    def _instance(self, row: int) -> Instance:
        return Instance(
            self._ids[row], self._labels[row], self._partitions[row], self._metadata.get(row, {})
        )

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[Instance]:
        return map(self._instance, range(len(self._ids)))

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self._position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReannotationPool):
            return NotImplemented
        return (self._ids, self._labels, self._partitions, self._metadata) == (
            other._ids, other._labels, other._partitions, other._metadata
        )

    def ids(self) -> tuple[str, ...]:
        return self._ids

    def get(self, instance_id: str) -> Instance:
        return self._instance(self._position[instance_id])

    def label_of(self, instance_id: str) -> str:
        return self._labels[self._position[instance_id]]

    def labels(self) -> set[str]:
        """Distinct dataset labels occurring in the pool."""
        return set(self._labels)


def _gather(
    read_ids: Callable[[], Sequence[str]], position: Mapping[str, int],
    link: Mapping[str, int] | None, message: str,
) -> list[int] | None:
    """The one rule that lines a container (which keeps its pool's id -> row map
    as `_position`) up with a pool: None, read in place, when the maps `link`
    and `position` are one object; else the row in `position` of each id that
    `read_ids()` returns (called only then). The first id that `position`
    lacks raises `message`, formatted with that id."""
    if link is position:
        return None
    ids = read_ids()
    rows = list(map(position.get, ids))
    if None in rows:
        raise ValidationError(message.format(ids[rows.index(None)]))
    return rows


def _take(values: Sequence, rows: Sequence[int]) -> tuple:
    """`values[row]` for each of `rows`, in one C-level pass of `itemgetter`,
    which returns a bare value for one row and refuses none."""
    if len(rows) == 1:
        return (values[rows[0]],)
    return itemgetter(*rows)(values) if rows else ()


class PredictionRecord(NamedTuple):
    """One model's predicted label and confidence for one instance."""

    model_id: str
    instance_id: str
    label: str
    confidence: float


class PredictionSet:
    """Rectangular (model x instance) table of predictions over a pool.

    Every (model, instance) pair must be present exactly once; partial
    ensembles are a hard error because per-instance means over fewer
    models silently change scores. Stored as one label column and one
    confidence column per model, in pool order; records are built on access.
    """

    _kept: dict = {}  # builder -> (key, value), from `_keep`; replaced whole, never changed
    _missing = "no predictions for instance {!r}"  # `_gather`'s message for an id without a slot

    def __init__(self, records: Iterable[PredictionRecord], pool: ReannotationPool) -> None:
        columns: _PredictionColumns = {}
        for record in records:
            _place_prediction(columns, pool._position, *record)
        self._set_columns(pool, columns)

    @classmethod
    def _from_columns(cls, pool: ReannotationPool, columns: _PredictionColumns) -> PredictionSet:
        predictions = cls.__new__(cls)
        predictions._set_columns(pool, columns)
        return predictions

    def _set_columns(self, pool: ReannotationPool, columns: _PredictionColumns) -> None:
        """Check that every slot is filled, then keep each model's columns as tuples."""
        if not columns:
            raise ValidationError("no prediction records")
        missing = sum(confs.count(None) for _, confs in columns.values())
        if missing:
            model, confs = next((m, c) for m, (_, c) in columns.items() if None in c)
            first = (model, pool.ids()[confs.index(None)])
            raise ValidationError(
                f"incomplete predictions: {missing} missing (model, instance) "
                f"pairs, first {first}"
            )
        for model, (labels, confs) in columns.items():  # one model's lists at a time
            columns[model] = (tuple(labels), tuple(confs))
        self._position = pool._position
        self._columns = columns

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def k(self) -> int:
        """Ensemble size."""
        return len(self._columns)

    def _over(
        self, pool: ReannotationPool, labels_only: bool = False
    ) -> list[tuple[Sequence, ...]]:
        """Per model, in model order, its label and confidence columns (its
        label column alone with `labels_only`) in `pool`'s row order, lined up
        through `_gather`: read in place when `_position` is `pool`'s own,
        else gathered by id."""
        slots = _gather(pool.ids, self._position, pool._position, self._missing)
        pairs = [pair[:1] if labels_only else pair for pair in self._columns.values()]
        if slots is None:
            return pairs
        return [tuple(_take(column, slots) for column in pair) for pair in pairs]

    def _keep(self, build: Callable, *key: object) -> Any:
        """`build(self, *key)`, or the one value kept for `build` when each item
        of `key` is the very object it was built for. A store assigns a new
        `_kept`, so readers see a finished entry or none; a raise keeps nothing."""
        kept = self._kept.get(build)
        if kept is not None and all(map(is_, kept[0], key)):
            return kept[1]
        value = build(self, *key)
        self._kept = {**self._kept, build: (key, value)}
        return value

    def _column(self, model_id: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
        try:
            return self._columns[model_id]
        except KeyError:
            raise ValidationError(f"unknown model {model_id!r}") from None

    def record(self, model_id: str, instance_id: str) -> PredictionRecord:
        labels, confs = self._column(model_id)
        [slot] = _gather(lambda: (instance_id,), self._position, None, self._missing)
        return PredictionRecord(model_id, instance_id, labels[slot], confs[slot])

    def for_instance(self, instance_id: str) -> tuple[PredictionRecord, ...]:
        """All models' records for one instance, in model order."""
        return tuple(map(self.record, self._columns, repeat(instance_id)))

    def records_for_model(self, model_id: str) -> tuple[PredictionRecord, ...]:
        """One model's records, in pool order."""
        labels, confs = self._column(model_id)
        return tuple(map(PredictionRecord, repeat(model_id), self._position, labels, confs))

    def labels(self) -> set[str]:
        """Distinct predicted labels across all models."""
        return set().union(*(labels for labels, _ in self._columns.values()))


#: per model, a label and a confidence column in pool order; None marks an empty slot
_PredictionColumns = dict[str, tuple[list[str | None], list[float | None]]]


def _interned(value: Any) -> Any:
    """A str as its one object (`sys.intern`); any other value, which a record
    or constructor may carry, unchanged for the caller's checks to refuse."""
    return intern(value) if type(value) is str else value


def _place_prediction(
    columns: _PredictionColumns, position: Mapping[str, int], model: str, iid: str,
    label: str, conf: float,
) -> None:
    if not 0.0 <= conf <= 1.0:
        raise ValidationError(
            f"confidence {conf!r} out of [0, 1] (model {model!r}, instance {iid!r})"
        )
    slot = position.get(iid)
    if slot is None:
        raise ValidationError(
            f"prediction for unknown instance {iid!r} (model {model!r})"
        )
    column = columns.get(model)
    if column is None:
        column = columns[model] = ([None] * len(position), [None] * len(position))
    if column[1][slot] is not None:
        raise ValidationError(
            f"duplicate prediction for model {model!r}, instance {iid!r}"
        )
    column[0][slot] = _interned(label)
    column[1][slot] = conf


def _fill(
    column: tuple[list[str | None], list[float | None]], pool: ReannotationPool,
    ids: list[str], labels: list[str], confs: list[float],
) -> bool:
    """Place a chunk of one model's checked predictions, or place none and
    return False when an id is unknown or repeated, or its slot is filled.

    A chunk whose ids are a run of pool rows, as in a file in pool order, goes
    in by slice; any other is placed slot by slot.
    """
    column_labels, column_confs = column
    start = pool._position.get(ids[0], 0)
    stop = start + len(ids)
    if pool._ids[start:stop] == tuple(ids):  # so every id is known, once, at start..stop
        if column_confs[start:stop].count(None) != len(ids):  # a slot an earlier chunk filled
            return False
        column_labels[start:stop] = map(intern, labels)
        column_confs[start:stop] = confs
        return True
    slots = list(map(pool._position.get, ids))
    if (
        len({None, *slots}) != len(slots) + 1  # an id unknown or twice
        or set(map(column_confs.__getitem__, slots)) != {None}
    ):
        return False
    deque(map(column_labels.__setitem__, slots, map(intern, labels)), maxlen=0)
    deque(map(column_confs.__setitem__, slots, confs), maxlen=0)
    return True


@dataclass(frozen=True)
class GoldRecord:
    """Ground-truth relabel for one instance, or the ELIMINATED marker."""

    instance_id: str
    gold: str | _EliminatedType

    @property
    def is_eliminated(self) -> bool:
        return isinstance(self.gold, _EliminatedType)


class GoldSet:
    """Gold relabels over a pool, with the derived noisy set.

    Instances without a gold record are treated as clean (gold equals the
    dataset label). The noisy set N holds exactly the ids whose gold
    differs from the dataset label or is ELIMINATED. Stored as one
    id -> gold value map; records are built on access.
    """

    def __init__(self, records: Iterable[GoldRecord], pool: ReannotationPool) -> None:
        gold: dict[str, str | _EliminatedType] = {}
        for rec in records:
            _place_gold(gold, pool._position, rec.instance_id, rec.gold)
        self._set_gold(gold, pool)

    @classmethod
    def _from_values(
        cls, gold: dict[str, str | _EliminatedType], pool: ReannotationPool
    ) -> GoldSet:
        """A set over an id -> gold map that the caller found valid for the pool."""
        gold_set = cls.__new__(cls)
        gold_set._set_gold(gold, pool)
        return gold_set

    def _set_gold(self, gold: dict[str, str | _EliminatedType], pool: ReannotationPool) -> None:
        self._gold = gold
        self._position = pool._position
        dataset_labels = map(pool._labels.__getitem__, map(pool._position.__getitem__, gold))
        # ELIMINATED differs from every label
        self._noisy = frozenset(compress(gold, map(ne, gold.values(), dataset_labels)))
        self._noisy_rows = bytes(map(self._noisy.__contains__, self._position))  # 0/1 per pool row

    @property
    def noisy_ids(self) -> frozenset[str]:
        """The noisy set N."""
        return self._noisy

    def __len__(self) -> int:
        return len(self._gold)

    def get(self, instance_id: str) -> GoldRecord | None:
        """The stored record, or None when the instance is implicitly clean."""
        value = self._gold.get(instance_id)
        return None if value is None else GoldRecord(instance_id, value)

    def records(self) -> tuple[GoldRecord, ...]:
        return tuple(map(GoldRecord, self._gold, self._gold.values()))


def _place_gold(
    gold: dict[str, str | _EliminatedType], position: Mapping[str, int], iid: str,
    value: str | _EliminatedType | None,
) -> None:
    value = _interned(value)
    if iid not in position:
        raise ValidationError(f"gold record for unknown instance {iid!r}")
    if iid in gold:
        raise ValidationError(f"duplicate gold record for {iid!r}")
    if not isinstance(value, _EliminatedType) and not value:
        raise ValidationError(f"empty gold label for {iid!r}")
    gold[iid] = value


# -- file loading --------------------------------------------------------
#
# Each loader checks records a chunk at a time (_CHUNK lines, or a whole tacred
# array) against the field table of their kind, column by column. A chunk those
# checks doubt is checked and placed record by record, which words the first
# defect, so the first defective record in read order decides the error either
# way. A JSON Lines chunk is parsed in one json.loads when _flat's brace counts
# find one record a line, and a predictions chunk whose ids are a run of pool
# rows is placed by slice (_fill). A field: (key, the types its value may have,
# their wording, key required).
_STR = frozenset({str})
_POOL_FIELDS = (
    ("id", _STR, "a string", True),
    ("relation", _STR, "a string", True),
    ("partition", frozenset({str, type(None)}), "a string", False),
)
_POOL_KEYS = frozenset(key for key, *_ in _POOL_FIELDS)
_PREDICTION_FIELDS = (
    ("model", _STR, "a string", True),
    ("id", _STR, "a string", True),
    ("label", _STR, "a string", True),
    ("confidence", frozenset({int, float}), "a number", True),  # a bool is no number here
)
#: What the column path takes: float confidences only, so that a chunk with an
#: int one goes record by record, which makes it a float.
_PREDICTION_COLUMNS = (*_PREDICTION_FIELDS[:3], ("confidence", frozenset({float}), "a float", True))
_GOLD_FIELDS = (
    ("id", _STR, "a string", True),
    ("gold", frozenset({str, type(None)}), "a string or null", True),
)
_SURROGATE = re.compile(r"[\ud800-\udfff]")  # a str holding one cannot be written as UTF-8


def _checked(obj: dict, fields: tuple, where: str) -> list:
    """The record's field values in table order; the first defective field is a ParseError."""
    values = []
    for key, types, must_be, required in fields:
        if required and key not in obj:
            raise ParseError(f"{where}: missing field {key!r}")
        value = obj.get(key)
        if type(value) not in types:
            raise ParseError(f"{where}: field {key!r} must be {must_be}")
        if type(value) is str and not value.isascii() and _SURROGATE.search(value):
            raise ParseError(f"{where}: field {key!r} holds a lone surrogate, not UTF-8 text")
        values.append(value)
    return values


def _columns(records: list, fields: tuple) -> list[list] | None:
    """Each field's column over the records, or None when _checked would refuse one."""
    columns = []
    for key, types, _, required in fields:
        try:
            column = list(map(itemgetter(key) if required else methodcaller("get", key), records))
            if types is _STR:
                text = "".join(column)  # quicker than a type pass; json makes no str subclass
            elif not types.issuperset(map(type, column)):
                return None
            else:
                text = "".join(filter(None, column)) if str in types else ""
            if not text.isascii() and _SURROGATE.search(text):
                return None
        except (KeyError, TypeError):  # TypeError: an entry that is no object, or no str
            return None
        columns.append(column)
    return columns


def _flat(chunk: list[str]) -> list[dict] | None:
    """The records of a flat chunk from one json.loads, or None when the chunk is not flat.

    Flat: no "[" in the chunk and exactly one "{" and one "}" on each of its N
    non-blank lines, so that each of the N parsed dicts lies on its own line:
    the records a line by line decode reads.

    The gate counts each brace over the whole text, and asks of each line only
    that its last non-blank character be "}"; given N parsed dicts, that is
    the same test. N dicts use up N braces of each kind, so no dict nests and
    no string holds a brace. A "}" ends each line, so it is the line's only
    one: dict k closes at the end of line k, and dict k + 1 opens after the
    comma that joins line k to line k + 1, so on line k + 1. Conversely, one
    brace of each kind a line puts dict k on line k, with only blanks after
    it. Totals alone would not do: '{"x":1}, {"a": 1' then '"b": 2}' hold two
    of each and parse to two dicts.
    """
    lines = chunk
    if not all(map(str.endswith, chunk, repeat(("}\n", "}")))):  # a line blank, padded or worse
        lines = list(filterfalse(str.isspace, chunk))
        if not all(line.rstrip().endswith("}") for line in lines):
            return None
    text = ",".join(lines)
    n = len(lines)
    if "[" in text or text.count("{") != n or text.count("}") != n:
        return None
    try:
        records = json.loads(f"[{text}]")
    except ValueError:  # incl. over-long ints
        return None
    if len(records) != len(lines) or set(map(type, records)) != {dict}:
        return None
    return records


@contextmanager
def _jsonl_chunks(path: Path) -> Iterator[Iterator[tuple[list[dict], Iterator[str]]]]:
    r"""`path` open for one streamed pass that never seeks, so a pipe works as a
    source; the with block reads its _chunks.

    Only "\n" ends a line (reading maps "\r\n" and "\r" to it), so U+2028,
    U+2029 and U+0085 may stand in strings. An invalid UTF-8 byte anywhere in
    the file decides before any record defect: a ParseError or ValidationError
    raised inside the with block first decodes the rest of the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                yield _chunks(fh, path)
            except (ParseError, ValidationError):
                while fh.read(1 << 16):  # an invalid byte further down decides first
                    pass
                raise
    except UnicodeDecodeError as exc:  # its position counts from the start of a read block
        raise ParseError(f"{path}: not valid UTF-8: {exc.reason}") from exc


def _chunks(fh: Iterator[str], path: Path) -> Iterator[tuple[list[dict], Iterator[str]]]:
    """Per _CHUNK lines of `fh`, their records and each record's "path:line".

    A bad line raises once the records above it are taken.
    """
    start = 0  # lines before the chunk
    while chunk := list(islice(fh, _CHUNK)):
        numbers = compress(count(start + 1), map(str.strip, chunk))  # of the non-blank lines
        wheres = map("{}:{}".format, repeat(path), numbers)
        records = _flat(chunk)
        if records is None:
            records = []
            for lineno, line in compress(enumerate(chunk, start + 1), map(str.strip, chunk)):
                try:
                    obj = json.loads(line.rstrip("\n"))  # positions as on the line alone
                except (ValueError, RecursionError) as exc:  # incl. over-long ints
                    yield records, wheres  # the records above a bad line go first
                    raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    yield records, wheres
                    raise ParseError(f"{path}:{lineno}: record is not an object")
                records.append(obj)
        yield records, wheres
        start += len(chunk)


def load_pool(source: str | Path, format: str = "jsonl") -> ReannotationPool:
    """Load the reannotation pool.

    ``jsonl``: one JSON object per line with fields id and relation
    (optional partition; everything else is kept as opaque metadata).
    ``tacred``: a single JSON array of objects with fields id and relation,
    other fields kept opaquely.
    """
    path = Path(source)
    if format == "jsonl":
        reading = _jsonl_chunks(path)
    elif format == "tacred":
        doc = _read_json(path)
        if not isinstance(doc, list):
            raise ParseError(f"{path}: expected a JSON array of instance objects")
        reading = nullcontext([(doc, map("{}: entry {}".format, repeat(path), count()))])
    else:
        raise ValidationError(f"unknown pool format {format!r}, expected one of {POOL_FORMATS}")
    ids: list[str] = []
    labels: list[str] = []
    partitions: list[str | None] = []
    metadata: dict[int, Mapping[str, Any]] = {}
    with reading as chunks:
        for records, wheres in chunks:
            columns = _columns(records, _POOL_FIELDS)
            if columns is None:  # _checked refuses what _columns does, so this loop raises
                for obj, where in zip(records, wheres):
                    if not isinstance(obj, dict):  # only a tacred entry can be other
                        raise ParseError(f"{where} is not an object")
                    _checked(obj, _POOL_FIELDS, where)
            chunk_ids, chunk_labels, chunk_partitions = columns
            lowered = {p: p if p is None else p.lower() for p in set(chunk_partitions)}
            for row, obj in enumerate(records, start=len(ids)):
                if len(obj) > 2 + ("partition" in obj):  # keys beyond the pool fields
                    metadata[row] = {k: v for k, v in obj.items() if k not in _POOL_KEYS}
            ids += chunk_ids
            labels += map(intern, chunk_labels)
            partitions += map(lowered.__getitem__, chunk_partitions)
    return ReannotationPool._from_columns(ids, labels, partitions, metadata)


def _write_jsonl(objs: Iterable[dict[str, Any]], target: str | Path) -> None:
    """Write each object as one JSON Lines record in UTF-8: the mirror of _jsonl_chunks."""
    with open(target, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def write_pool(pool: ReannotationPool, target: str | Path) -> None:
    """Write a pool as jsonl records; round-trips through load_pool."""
    objs = (
        {
            "id": inst.id,
            "relation": inst.label,
            **({} if inst.partition is None else {"partition": inst.partition}),
            **inst.metadata,
        }
        for inst in pool
    )
    _write_jsonl(objs, target)


def load_predictions(sources: Iterable[str | Path], pool: ReannotationPool) -> PredictionSet:
    """Load one predictions file per model into a rectangular PredictionSet.

    Each jsonl record carries model, id, label, and confidence; each file
    holds exactly one model, and no other file uses that model. Records go
    to the set as they are read, so the first defective one decides the error.
    """
    paths = list(map(Path, sources))  # a bad source fails before any file is read
    position = pool._position
    columns: _PredictionColumns = {}
    read_from: dict[str, Path] = {}
    for path in paths:
        model = None  # the file's, from its first record on
        with _jsonl_chunks(path) as chunks:
            for records, wheres in chunks:
                fields = records and _columns(records, _PREDICTION_COLUMNS)
                if fields and model is None and fields[0][0] not in read_from:
                    model = fields[0][0]
                    read_from[model] = path
                    columns[model] = ([None] * len(position), [None] * len(position))
                if fields and model is not None:  # by now, the model's columns exist
                    models, ids, labels, confs = fields
                    if (
                        set(models) == {model}
                        and all(map(le, repeat(0.0), confs))  # False for NaN too,
                        and max(confs) <= 1.0  # so max meets none
                        and _fill(columns[model], pool, ids, labels, confs)
                    ):
                        continue
                for obj, where in zip(records, wheres):
                    record_model, iid, label, conf = _checked(obj, _PREDICTION_FIELDS, where)
                    if model is None:
                        if record_model in read_from:
                            raise ValidationError(
                                f"{path}: model {record_model!r} was already read from "
                                f"{read_from[record_model]}"
                            )
                        model = record_model
                        read_from[model] = path
                    elif record_model != model:
                        raise ValidationError(
                            f"{path}: mixes model ids {model!r} and {record_model!r}; "
                            f"one predictions file per model"
                        )
                    try:
                        conf = float(conf)
                    except OverflowError:
                        raise ValidationError(f"{where}: confidence out of [0, 1]") from None
                    _place_prediction(columns, position, model, iid, label, conf)
        if model is None:
            raise ValidationError(f"{path}: no prediction records")
    return PredictionSet._from_columns(pool, columns)


def write_predictions(
    predictions: PredictionSet, model_id: str, target: str | Path
) -> None:
    """Write one model's predictions as jsonl; round-trips through load_predictions."""
    keys = ("model", "id", "label", "confidence")  # a PredictionRecord's fields, in order
    objs = (dict(zip(keys, rec)) for rec in predictions.records_for_model(model_id))
    _write_jsonl(objs, target)


def load_gold(source: str | Path, pool: ReannotationPool) -> GoldSet:
    """Load gold relabels: jsonl records with fields id and gold (null = eliminated)."""
    path = Path(source)
    position = pool._position
    gold: dict[str, str | _EliminatedType] = {}
    with _jsonl_chunks(path) as chunks:
        for records, wheres in chunks:
            fields = _columns(records, _GOLD_FIELDS)
            if fields:
                ids, values = fields
                values = [ELIMINATED if v is None else intern(v) for v in values]  # JSON null
                chunk_gold = dict(zip(ids, values))
                if (
                    "" not in values
                    and len(chunk_gold) == len(ids)  # no id twice
                    and all(map(position.__contains__, ids))
                    and gold.keys().isdisjoint(chunk_gold)
                ):
                    gold.update(chunk_gold)
                    continue
            for obj, where in zip(records, wheres):
                iid, value = _checked(obj, _GOLD_FIELDS, where)
                _place_gold(gold, position, iid, ELIMINATED if value is None else value)
    return GoldSet._from_values(gold, pool)


def write_gold(gold: GoldSet, target: str | Path) -> None:
    """Write gold records as jsonl; round-trips through load_gold."""
    objs = (
        {"id": rec.instance_id, "gold": None if rec.is_eliminated else rec.gold}
        for rec in gold.records()
    )
    _write_jsonl(objs, target)


def load_label_map(source: str | Path) -> dict[str, str]:
    """Load a JSON object mapping original labels to transformed labels."""
    path = Path(source)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object of label pairs")
    for key, value in doc.items():
        if not isinstance(value, str) or not value:
            raise ParseError(f"{path}: entry {key!r} must map to a non-empty string")
    return dict(doc)


def apply_label_map(pool: ReannotationPool, mapping: Mapping[str, str]) -> ReannotationPool:
    """Replace every instance label by its image; ids and metadata untouched.

    The map must be total over the labels occurring in the pool.
    """
    labels = pool.labels()
    unmapped = sorted(labels - mapping.keys())
    if unmapped:
        raise ValidationError("label map has no entry for: " + ", ".join(unmapped))
    image = {label: _interned(mapping[label]) for label in labels}
    return ReannotationPool._from_columns(
        pool._ids, map(image.__getitem__, pool._labels), pool._partitions, pool._metadata
    )


def validate_bundle(
    hierarchy: LabelHierarchy,
    pool: ReannotationPool,
    predictions: PredictionSet | None = None,
    gold: GoldSet | None = None,
    label_map: Mapping[str, str] | None = None,
) -> list[str]:
    """Cross-check every loaded label against the hierarchy.

    Returns one problem string per unresolvable label; an empty list means
    the bundle is consistent.
    """
    gold_values = set(gold._gold.values()) if gold is not None else set()
    checks = [
        ("dataset label", pool.labels()),
        ("predicted label", predictions.labels() if predictions is not None else ()),
        ("gold label", {v for v in gold_values if not isinstance(v, _EliminatedType)}),
        ("label map target", label_map.values() if label_map is not None else ()),
    ]
    return [
        f"{kind} not in hierarchy: {label!r}"
        for kind, labels in checks
        for label in hierarchy.validate_labels(labels)
    ]
