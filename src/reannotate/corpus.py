"""Loaders and containers for pools, model predictions, gold relabels, and label maps.

All containers are immutable after construction and safe for concurrent
reads; loading itself is single-threaded per file. Containers hold columns
and build record objects on access.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, islice, repeat
from operator import itemgetter, le, ne
from pathlib import Path
from typing import Any, Iterable, Iterator, KeysView, Mapping, NamedTuple

from .errors import ParseError, ValidationError
from .hierarchy import LabelHierarchy, _read_json

POOL_FORMATS = ("jsonl", "tacred")
_PARTITIONS = ("train", "dev", "test")
_POOL_FIELDS = ("id", "relation", "partition")
#: Lines per bulk parse: parsing a whole predictions file at once peaks near
#: three times what the loaded set keeps.
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
                metadata[len(ids)] = inst.metadata
            ids.append(inst.id)
            labels.append(inst.label)
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

    def __init__(self, records: Iterable[PredictionRecord], pool: ReannotationPool) -> None:
        position = pool._position
        # per model, a label and a confidence column in pool order; a filled slot is a duplicate
        columns: dict[str, tuple[list[str | None], list[float | None]]] = {}
        for model, iid, label, conf in records:
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
            column[0][slot] = label
            column[1][slot] = conf
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
        self._slot = position
        self._columns = {m: (tuple(lc), tuple(cc)) for m, (lc, cc) in columns.items()}

    @classmethod
    def _from_columns(
        cls,
        pool: ReannotationPool,
        columns: dict[str, tuple[tuple[str, ...], tuple[float, ...]]],
    ) -> PredictionSet:
        """A set over per-model columns in pool order that the caller found complete and valid."""
        predictions = cls.__new__(cls)
        predictions._slot = pool._position
        predictions._columns = columns
        return predictions

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def k(self) -> int:
        """Ensemble size."""
        return len(self._columns)

    def columns(
        self,
    ) -> tuple[Mapping[str, int], tuple[tuple[tuple[str, ...], tuple[float, ...]], ...]]:
        """The instance id -> slot map (read-only), and per model, in model
        order, its label column and its confidence column, indexed by slot."""
        return self._slot, tuple(self._columns.values())

    def _column(self, model_id: str) -> tuple[tuple[str, ...], tuple[float, ...]]:
        try:
            return self._columns[model_id]
        except KeyError:
            raise ValidationError(f"unknown model {model_id!r}") from None

    def _slot_of(self, instance_id: str) -> int:
        slot = self._slot.get(instance_id)
        if slot is None:
            raise ValidationError(f"no predictions for instance {instance_id!r}")
        return slot

    def record(self, model_id: str, instance_id: str) -> PredictionRecord:
        labels, confs = self._column(model_id)
        slot = self._slot_of(instance_id)
        return PredictionRecord(model_id, instance_id, labels[slot], confs[slot])

    def for_instance(self, instance_id: str) -> tuple[PredictionRecord, ...]:
        """All models' records for one instance, in model order."""
        slot = self._slot_of(instance_id)
        return tuple([
            PredictionRecord(model, instance_id, labels[slot], confs[slot])
            for model, (labels, confs) in self._columns.items()
        ])

    def records_for_model(self, model_id: str) -> tuple[PredictionRecord, ...]:
        """One model's records, in pool order."""
        labels, confs = self._column(model_id)
        return tuple(map(PredictionRecord, repeat(model_id), self._slot, labels, confs))

    def labels(self) -> set[str]:
        """Distinct predicted labels across all models."""
        return set().union(*(labels for labels, _ in self._columns.values()))


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
            if rec.instance_id not in pool:
                raise ValidationError(f"gold record for unknown instance {rec.instance_id!r}")
            if rec.instance_id in gold:
                raise ValidationError(f"duplicate gold record for {rec.instance_id!r}")
            if not rec.is_eliminated and not rec.gold:
                raise ValidationError(f"empty gold label for {rec.instance_id!r}")
            gold[rec.instance_id] = rec.gold
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
        self._pool_ids = pool._position.keys()
        dataset_labels = map(pool._labels.__getitem__, map(pool._position.__getitem__, gold))
        # ELIMINATED differs from every label
        self._noisy = frozenset(compress(gold, map(ne, gold.values(), dataset_labels)))

    @property
    def noisy_ids(self) -> frozenset[str]:
        """The noisy set N."""
        return self._noisy

    @property
    def pool_ids(self) -> KeysView[str]:
        return self._pool_ids

    def __len__(self) -> int:
        return len(self._gold)

    def get(self, instance_id: str) -> GoldRecord | None:
        """The stored record, or None when the instance is implicitly clean."""
        value = self._gold.get(instance_id)
        return None if value is None else GoldRecord(instance_id, value)

    def records(self) -> tuple[GoldRecord, ...]:
        return tuple(map(GoldRecord, self._gold, self._gold.values()))


# -- file loading --------------------------------------------------------
#
# Each JSON Lines loader tries the bulk path first. It only accepts: on any
# doubt it raises _Unsure, keeps nothing, and the per-line path reads the file
# again and words the error, so messages never depend on which path ran.


class _Unsure(Exception):
    """The bulk path cannot vouch for an input; the per-line path reads it instead."""


def _flat_chunks(path: Path) -> Iterator[list[dict]]:
    """Parse a flat JSON Lines file in bulk, one dict per non-blank line, _CHUNK lines at a time.

    Flat: no "[" in the file and exactly one "{" and one "}" on each non-blank
    line. N parsed dicts then use up all N braces, so no object nests, no
    string holds a brace and each object lies on its own line: the records the
    per-line path reads. Raises _Unsure on anything else and on a file without
    records.
    """
    empty = True
    try:
        with open(path, encoding="utf-8") as fh:
            while chunk := list(islice(fh, _CHUNK)):
                lines = list(filter(str.strip, chunk))
                if not lines:
                    continue
                text = ",".join(lines)
                if (
                    "[" in text
                    or set(map(str.count, lines, repeat("{"))) != {1}
                    or set(map(str.count, lines, repeat("}"))) != {1}
                ):
                    raise _Unsure
                objs = json.loads(f"[{text}]")
                if len(objs) != len(lines) or set(map(type, objs)) != {dict}:
                    raise _Unsure
                empty = False
                yield objs
    except (OSError, ValueError):  # incl. invalid UTF-8 or JSON and over-long ints
        raise _Unsure from None
    if empty:
        raise _Unsure


def _columns(objs: list[dict], *keys: str) -> list[list]:
    try:
        return [list(map(itemgetter(key), objs)) for key in keys]
    except KeyError:
        raise _Unsure from None


def _require_types(column: list, *types: type) -> None:
    if not set(map(type, column)).issubset(types):
        raise _Unsure


def _iter_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    r"""Yield ("path:line", record) per non-blank line; records must be objects.

    Only "\n" ends a line (read_text maps "\r\n" and "\r" to it), so U+2028, U+2029
    and U+0085 may stand in strings. Read whole, so no handle outlives a caller that stops.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from exc
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(text.split("\n"), start=1):
        where = f"{path}:{lineno}"
        try:
            obj, end = decode(line)
        except (ValueError, RecursionError):
            end = -1
        if end != len(line):  # blank, padded or invalid: json.loads decides and words errors
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:  # incl. over-long ints
                raise ParseError(f"{where}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: record is not an object")
        yield where, obj


def _require_str(obj: dict, key: str, where: str) -> str:
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, str):
        raise ParseError(f"{where}: field {key!r} must be a string")
    return value


def _instance_from_record(obj: dict, where: str) -> Instance:
    iid = _require_str(obj, "id", where)
    label = _require_str(obj, "relation", where)
    partition = obj.get("partition")
    if partition is not None:
        if not isinstance(partition, str):
            raise ParseError(f"{where}: field 'partition' must be a string")
        partition = partition.lower()
    metadata = {k: v for k, v in obj.items() if k not in _POOL_FIELDS}
    return Instance(iid, label, partition=partition, metadata=metadata)


def _pool_in_bulk(path: Path) -> ReannotationPool:
    ids: list[str] = []
    labels: list[str] = []
    partitions: list[str | None] = []
    metadata: dict[int, Mapping[str, Any]] = {}
    for objs in _flat_chunks(path):
        chunk_ids, chunk_labels = _columns(objs, "id", "relation")
        _require_types(chunk_ids, str)
        _require_types(chunk_labels, str)
        chunk_partitions = list(map(dict.get, objs, repeat("partition")))
        _require_types(chunk_partitions, str, type(None))
        lowered = {p: p if p is None else p.lower() for p in set(chunk_partitions)}
        for row, obj in enumerate(objs, start=len(ids)):
            if len(obj) > 2 + ("partition" in obj):
                metadata[row] = {k: v for k, v in obj.items() if k not in _POOL_FIELDS}
        ids += chunk_ids
        labels += chunk_labels
        partitions += map(lowered.__getitem__, chunk_partitions)
    try:
        return ReannotationPool._from_columns(ids, labels, partitions, metadata)
    except ValidationError:
        raise _Unsure from None


def _pool_by_line(path: Path) -> ReannotationPool:
    return ReannotationPool(_instance_from_record(obj, where) for where, obj in _iter_jsonl(path))


def load_pool(source: str | Path, format: str = "jsonl") -> ReannotationPool:
    """Load the reannotation pool.

    ``jsonl``: one JSON object per line with fields id and relation
    (optional partition; everything else is kept as opaque metadata).
    ``tacred``: a single JSON array of objects with fields id and relation,
    other fields kept opaquely.
    """
    path = Path(source)
    if format == "jsonl":
        try:
            return _pool_in_bulk(path)
        except _Unsure:
            return _pool_by_line(path)
    if format != "tacred":
        raise ValidationError(f"unknown pool format {format!r}, expected one of {POOL_FORMATS}")
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON array of instance objects")
    instances = []
    for i, obj in enumerate(doc):
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: entry {i} is not an object")
        instances.append(_instance_from_record(obj, f"{path}: entry {i}"))
    return ReannotationPool(instances)


def write_pool(pool: ReannotationPool, target: str | Path) -> None:
    """Write a pool as jsonl records; round-trips through load_pool."""
    with open(target, "w", encoding="utf-8") as fh:
        for inst in pool:
            obj: dict[str, Any] = {"id": inst.id, "relation": inst.label}
            if inst.partition is not None:
                obj["partition"] = inst.partition
            obj.update(inst.metadata)
            fh.write(json.dumps(obj) + "\n")


def _iter_predictions(sources: Iterable[Path]) -> Iterator[tuple[str, str, str, float]]:
    read_from: dict[str, Path] = {}
    for path in sources:
        file_model: str | None = None
        for where, obj in _iter_jsonl(path):
            model = _require_str(obj, "model", where)
            iid = _require_str(obj, "id", where)
            label = _require_str(obj, "label", where)
            if "confidence" not in obj:
                raise ParseError(f"{where}: missing field 'confidence'")
            conf = obj["confidence"]
            if isinstance(conf, bool) or not isinstance(conf, (int, float)):
                raise ParseError(f"{where}: field 'confidence' must be a number")
            if file_model is None:
                if model in read_from:
                    raise ValidationError(
                        f"{path}: model {model!r} was already read from {read_from[model]}"
                    )
                file_model = model
                read_from[model] = path
            elif model != file_model:
                raise ValidationError(
                    f"{path}: mixes model ids {file_model!r} and {model!r}; "
                    f"one predictions file per model"
                )
            try:
                conf = float(conf)
            except OverflowError:
                raise ValidationError(f"{where}: confidence out of [0, 1]") from None
            yield model, iid, label, conf
        if file_model is None:
            raise ValidationError(f"{path}: no prediction records")


def _predictions_in_bulk(paths: list[Path], pool: ReannotationPool) -> PredictionSet:
    """Complete files of float confidences in [0, 1], one new model each, any row order."""
    position = pool._position
    columns: dict[str, tuple[tuple[str, ...], tuple[float, ...]]] = {}
    for path in paths:
        labels: list[str | None] = [None] * len(position)
        confs: list[float | None] = [None] * len(position)
        model = None
        rows = 0
        for objs in _flat_chunks(path):
            models, ids, chunk_labels, chunk_confs = _columns(
                objs, "model", "id", "label", "confidence"
            )
            for column in (models, ids, chunk_labels):
                _require_types(column, str)
            _require_types(chunk_confs, float)  # ints and bools go by line
            model = models[0] if model is None else model
            slots = list(map(position.get, ids))
            if (
                set(models) != {model}
                or model in columns
                or None in slots
                # False for NaN too
                or not all(map(le, repeat(0.0), chunk_confs))
                or not all(map(le, chunk_confs, repeat(1.0)))
            ):
                raise _Unsure
            deque(map(labels.__setitem__, slots, chunk_labels), maxlen=0)
            deque(map(confs.__setitem__, slots, chunk_confs), maxlen=0)
            rows += len(slots)
        # as many rows as slots and none left empty: each instance exactly once
        if rows != len(position) or None in confs:
            raise _Unsure
        columns[model] = (tuple(labels), tuple(confs))
    if not columns:
        raise _Unsure
    return PredictionSet._from_columns(pool, columns)


def _predictions_by_line(paths: list[Path], pool: ReannotationPool) -> PredictionSet:
    return PredictionSet(_iter_predictions(paths), pool)


def load_predictions(
    sources: Iterable[str | Path], pool: ReannotationPool
) -> PredictionSet:
    """Load one predictions file per model into a rectangular PredictionSet.

    Each jsonl record carries model, id, label, and confidence; each file
    holds exactly one model, and no other file uses that model. Records go
    to the set as they are read, so the first defective one decides the error.
    """
    paths = list(map(Path, sources))
    try:
        return _predictions_in_bulk(paths, pool)
    except _Unsure:
        return _predictions_by_line(paths, pool)


def write_predictions(
    predictions: PredictionSet, model_id: str, target: str | Path
) -> None:
    """Write one model's predictions as jsonl; round-trips through load_predictions."""
    with open(target, "w", encoding="utf-8") as fh:
        for rec in predictions.records_for_model(model_id):
            obj = {
                "model": rec.model_id,
                "id": rec.instance_id,
                "label": rec.label,
                "confidence": rec.confidence,
            }
            fh.write(json.dumps(obj) + "\n")


def _gold_from_record(obj: dict, where: str) -> GoldRecord:
    iid = _require_str(obj, "id", where)
    if "gold" not in obj:
        raise ParseError(f"{where}: missing field 'gold'")
    gold = obj["gold"]
    if gold is not None and not isinstance(gold, str):
        raise ParseError(f"{where}: field 'gold' must be a string or null")
    return GoldRecord(iid, ELIMINATED if gold is None else gold)


def _gold_in_bulk(path: Path, pool: ReannotationPool) -> GoldSet:
    gold: dict[str, str | _EliminatedType] = {}
    rows = 0
    for objs in _flat_chunks(path):
        ids, values = _columns(objs, "id", "gold")
        _require_types(ids, str)
        _require_types(values, str, type(None))
        if "" in values or not all(map(pool._position.__contains__, ids)):
            raise _Unsure
        gold.update(zip(ids, [ELIMINATED if value is None else value for value in values]))
        rows += len(ids)
    if rows != len(gold):  # an id repeated
        raise _Unsure
    return GoldSet._from_values(gold, pool)


def _gold_by_line(path: Path, pool: ReannotationPool) -> GoldSet:
    return GoldSet((_gold_from_record(obj, where) for where, obj in _iter_jsonl(path)), pool)


def load_gold(source: str | Path, pool: ReannotationPool) -> GoldSet:
    """Load gold relabels: jsonl records with fields id and gold (null = eliminated)."""
    path = Path(source)
    try:
        return _gold_in_bulk(path, pool)
    except _Unsure:
        return _gold_by_line(path, pool)


def write_gold(gold: GoldSet, target: str | Path) -> None:
    """Write gold records as jsonl; round-trips through load_gold."""
    with open(target, "w", encoding="utf-8") as fh:
        for rec in gold.records():
            value = None if rec.is_eliminated else rec.gold
            fh.write(json.dumps({"id": rec.instance_id, "gold": value}) + "\n")


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
    unmapped = sorted(pool.labels() - mapping.keys())
    if unmapped:
        raise ValidationError("label map has no entry for: " + ", ".join(unmapped))
    return ReannotationPool._from_columns(
        pool._ids, map(mapping.__getitem__, pool._labels), pool._partitions, pool._metadata
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
