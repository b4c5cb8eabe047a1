"""Offline profiling sessions: the paper's metadata-file workflow (§5.2.2).

Umbra "writes all logs into a meta-data file, which is read by the
post-processing phase"; samples arrive separately via ``perf script``.
This module reproduces that decoupling: :func:`save_session` persists the
compile-time metadata (Tagging Dictionary logs, debug info, code-region
map) and the raw samples; :func:`load_session` re-attributes the samples
with *no* live engine objects — everything the post-processor needs is in
the files, and the post-processor is the live one
(:class:`~repro.profiling.postprocess.SampleProcessor`).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass

from repro.errors import ProfilingError
from repro.pipeline.tasks import Task
from repro.profiling.postprocess import Attribution, SampleProcessor
from repro.profiling.tagging import TaggingDictionary
from repro.vm.isa import (
    REG_TAG,
    TAG_QUERY_SHIFT,
    CodeRegion,
    FunctionInfo,
    Program,
)
from repro.vm.pmu import Sample

_TAGGING_FILE = "tagging.json"
_PROGRAM_FILE = "program.json"
_SAMPLES_FILE = "samples.jsonl"
_META_FILE = "meta.json"


def save_session(profile, directory) -> pathlib.Path:
    """Persist one profiled run for offline post-processing."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    pipeline_of_task = {
        task.id: pipeline.index
        for pipeline in profile.pipelines
        for task in pipeline.tasks
    }
    tagging = profile.tagging
    tagging_doc = {
        "tasks": {
            str(task_id): {
                "role": task.role,
                "operator": task.operator.label,
                "kind": task.operator.kind,
                "pipeline": pipeline_of_task.get(task_id),
            }
            for task_id, task in tagging.tasks.items()
        },
        "log_b": {str(ir): list(task_ids) for ir, task_ids in tagging.log_b.items()},
        "runtime_ir": {str(ir): name for ir, name in tagging.runtime_ir.items()},
    }
    (directory / _TAGGING_FILE).write_text(json.dumps(tagging_doc))

    program = profile.program
    program_doc = {
        "functions": [
            {
                "name": info.name,
                "start": info.start,
                "end": info.end,
                "region": info.region.value,
            }
            for info in program.functions
        ],
        "debug": {str(ip): ir for ip, ir in program.debug.items()},
    }
    (directory / _PROGRAM_FILE).write_text(json.dumps(program_doc))

    with (directory / _SAMPLES_FILE).open("w") as handle:
        for attribution in profile.attributions:
            sample = attribution.sample
            record = {"ip": sample.ip, "tsc": sample.tsc,
                      "worker": attribution.worker}
            if sample.registers is not None:
                tag = sample.registers[REG_TAG]
                record["tag"] = tag
                if isinstance(tag, int) and tag >> TAG_QUERY_SHIFT:
                    # query/tenant dimension (repro.serve): persist the
                    # high half explicitly so offline tools need no
                    # knowledge of the packing
                    record["query"] = tag >> TAG_QUERY_SHIFT
            if sample.callstack is not None:
                record["callstack"] = list(sample.callstack)
            if sample.memaddr is not None:
                record["memaddr"] = sample.memaddr
            if sample.branch_taken is not None:
                record["taken"] = sample.branch_taken
            handle.write(json.dumps(record) + "\n")

    meta = {
        "mode": profile.config.mode.value,
        "event": profile.config.event.value,
        "period": profile.config.period,
        "cycles": profile.result.cycles,
        "instructions": profile.result.instructions,
        "workers": profile.workers,
    }
    (directory / _META_FILE).write_text(json.dumps(meta))
    return directory


@dataclass(frozen=True)
class SessionOperator:
    """What the metadata file keeps of a task's dataflow-graph operator."""

    label: str
    kind: str
    pipeline: int | None


class OfflineSession:
    """Post-processing over persisted metadata — no engine required.

    The metadata files are rehydrated into the compile-time structures
    the live :class:`SampleProcessor` walks — a code-less ``Program``
    (function extents + debug info) and a ``TaggingDictionary`` (Log B,
    runtime IR, tasks over :class:`SessionOperator` records) — so offline
    and live attribution are the same code."""

    def __init__(self, tagging_doc: dict, program_doc: dict,
                 samples: list[dict], meta: dict):
        self.meta = meta
        self.samples = samples
        program = Program(
            functions=[
                FunctionInfo(
                    info["name"], info["start"], info["end"],
                    CodeRegion(info["region"]),
                )
                for info in program_doc["functions"]
            ],
            debug={int(ip): ir for ip, ir in program_doc["debug"].items()},
        )
        tagging = TaggingDictionary(
            log_b={
                int(ir): tuple(task_ids)
                for ir, task_ids in tagging_doc["log_b"].items()
            },
            runtime_ir={
                int(ir): name
                for ir, name in tagging_doc["runtime_ir"].items()
            },
        )
        for task_id, info in tagging_doc["tasks"].items():
            operator = SessionOperator(
                info["operator"], info["kind"], info["pipeline"]
            )
            tagging.register_task(Task(operator, info["role"], int(task_id)))
        self.processor = SampleProcessor(program, tagging)
        self.attributions = [self.attribute(record) for record in samples]

    def attribute(self, record: dict) -> Attribution:
        """The live processor's attribution of one persisted record."""
        registers = None
        if "tag" in record:
            # only the tag register was persisted
            registers = (None,) * REG_TAG + (record["tag"],)
        callstack = record.get("callstack")
        sample = Sample(
            ip=record["ip"],
            tsc=record["tsc"],
            registers=registers,
            callstack=tuple(callstack) if callstack is not None else None,
            memaddr=record.get("memaddr"),
            branch_taken=record.get("taken"),
        )
        return dataclasses.replace(
            self.processor.attribute(sample), worker=record["worker"]
        )

    # -- aggregates -----------------------------------------------------------

    def summary(self) -> dict:
        return dataclasses.asdict(self.processor.summarize(self.attributions))

    def query_weights(self) -> dict[int | None, int]:
        """Sample counts per serve query id (None = unqualified samples)."""
        return self.processor.query_weights(self.attributions)

    def operator_weights(self) -> dict[str, float]:
        """Sample weight per operator label (an operator's tasks in
        different pipelines are distinct records; the label joins them)."""
        weights: dict[str, float] = {}
        for operator, weight in self.processor.operator_weights(
            self.attributions
        ).items():
            weights[operator.label] = weights.get(operator.label, 0.0) + weight
        return weights


def load_session(directory) -> OfflineSession:
    """Load a persisted session for offline post-processing."""
    directory = pathlib.Path(directory)
    try:
        tagging_doc = json.loads((directory / _TAGGING_FILE).read_text())
        program_doc = json.loads((directory / _PROGRAM_FILE).read_text())
        meta = json.loads((directory / _META_FILE).read_text())
        samples = [
            json.loads(line)
            for line in (directory / _SAMPLES_FILE).read_text().splitlines()
            if line.strip()
        ]
    except FileNotFoundError as exc:
        raise ProfilingError(f"not a profiling session: {exc}") from None
    return OfflineSession(tagging_doc, program_doc, samples, meta)
