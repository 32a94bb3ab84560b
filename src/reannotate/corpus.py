"""Loaders and containers for pools, model predictions, gold relabels, and label maps.

All containers are immutable after construction and safe for concurrent
reads; loading itself is single-threaded per file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import repeat
from pathlib import Path
from typing import Any, Iterable, Iterator, KeysView, Mapping, NamedTuple

from .errors import ParseError, ValidationError
from .hierarchy import LabelHierarchy, _read_json

POOL_FORMATS = ("jsonl", "tacred")
_PARTITIONS = ("train", "dev", "test")


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
    """Ordered, id-unique, non-empty collection of instances eligible for relabeling."""

    def __init__(self, instances: Iterable[Instance]) -> None:
        self._instances = tuple(instances)
        if not self._instances:
            raise ValidationError("pool is empty")
        position: dict[str, int] = {}
        for index, inst in enumerate(self._instances):
            if not inst.id:
                raise ValidationError("instance with empty id")
            if not inst.label:
                raise ValidationError(f"instance {inst.id!r} has an empty label")
            if inst.partition is not None and inst.partition not in _PARTITIONS:
                raise ValidationError(
                    f"instance {inst.id!r} has partition {inst.partition!r}, "
                    f"expected one of {_PARTITIONS}"
                )
            if inst.id in position:
                raise ValidationError(f"duplicate instance id: {inst.id!r}")
            position[inst.id] = index
        self._position = position

    def __len__(self) -> int:
        return len(self._instances)

    def __iter__(self) -> Iterator[Instance]:
        return iter(self._instances)

    def __contains__(self, instance_id: object) -> bool:
        return instance_id in self._position

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReannotationPool):
            return NotImplemented
        return self._instances == other._instances

    def ids(self) -> tuple[str, ...]:
        return tuple(self._position)

    def get(self, instance_id: str) -> Instance:
        return self._instances[self._position[instance_id]]

    def label_of(self, instance_id: str) -> str:
        return self.get(instance_id).label

    def labels(self) -> set[str]:
        """Distinct dataset labels occurring in the pool."""
        return {inst.label for inst in self._instances}


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
    differs from the dataset label or is ELIMINATED.
    """

    def __init__(self, records: Iterable[GoldRecord], pool: ReannotationPool) -> None:
        by_id: dict[str, GoldRecord] = {}
        for rec in records:
            if rec.instance_id not in pool:
                raise ValidationError(f"gold record for unknown instance {rec.instance_id!r}")
            if rec.instance_id in by_id:
                raise ValidationError(f"duplicate gold record for {rec.instance_id!r}")
            if not rec.is_eliminated and not rec.gold:
                raise ValidationError(f"empty gold label for {rec.instance_id!r}")
            by_id[rec.instance_id] = rec
        self._by_id = by_id
        self._pool_ids = pool._position.keys()
        self._noisy = frozenset(
            iid
            for iid, rec in by_id.items()
            if rec.is_eliminated or rec.gold != pool.label_of(iid)
        )

    @property
    def noisy_ids(self) -> frozenset[str]:
        """The noisy set N."""
        return self._noisy

    @property
    def pool_ids(self) -> KeysView[str]:
        return self._pool_ids

    def __len__(self) -> int:
        return len(self._by_id)

    def get(self, instance_id: str) -> GoldRecord | None:
        """The stored record, or None when the instance is implicitly clean."""
        return self._by_id.get(instance_id)

    def records(self) -> tuple[GoldRecord, ...]:
        return tuple(self._by_id.values())


# -- file loading --------------------------------------------------------


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
    metadata = {k: v for k, v in obj.items() if k not in ("id", "relation", "partition")}
    return Instance(iid, label, partition=partition, metadata=metadata)


def load_pool(source: str | Path, format: str = "jsonl") -> ReannotationPool:
    """Load the reannotation pool.

    ``jsonl``: one JSON object per line with fields id and relation
    (optional partition; everything else is kept as opaque metadata).
    ``tacred``: a single JSON array of objects with fields id and relation,
    other fields kept opaquely.
    """
    path = Path(source)
    if format == "jsonl":
        instances = (_instance_from_record(obj, where) for where, obj in _iter_jsonl(path))
    elif format == "tacred":
        doc = _read_json(path)
        if not isinstance(doc, list):
            raise ParseError(f"{path}: expected a JSON array of instance objects")
        instances = []
        for i, obj in enumerate(doc):
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: entry {i} is not an object")
            instances.append(_instance_from_record(obj, f"{path}: entry {i}"))
    else:
        raise ValidationError(f"unknown pool format {format!r}, expected one of {POOL_FORMATS}")
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


def _iter_predictions(sources: Iterable[str | Path]) -> Iterator[tuple[str, str, str, float]]:
    read_from: dict[str, Path] = {}
    for source in sources:
        path = Path(source)
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


def load_predictions(
    sources: Iterable[str | Path], pool: ReannotationPool
) -> PredictionSet:
    """Load one predictions file per model into a rectangular PredictionSet.

    Each jsonl record carries model, id, label, and confidence; each file
    holds exactly one model, and no other file uses that model. Records go
    to the set as they are read, so the first defective one decides the error.
    """
    return PredictionSet(_iter_predictions(sources), pool)


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


def load_gold(source: str | Path, pool: ReannotationPool) -> GoldSet:
    """Load gold relabels: jsonl records with fields id and gold (null = eliminated)."""
    path = Path(source)
    return GoldSet((_gold_from_record(obj, where) for where, obj in _iter_jsonl(path)), pool)


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
    return ReannotationPool(
        replace(inst, label=mapping[inst.label]) for inst in pool
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
    gold_records = gold.records() if gold is not None else ()
    checks = [
        ("dataset label", pool.labels()),
        ("predicted label", predictions.labels() if predictions is not None else ()),
        ("gold label", {rec.gold for rec in gold_records if not rec.is_eliminated}),
        ("label map target", label_map.values() if label_map is not None else ()),
    ]
    return [
        f"{kind} not in hierarchy: {label!r}"
        for kind, labels in checks
        for label in hierarchy.validate_labels(labels)
    ]
