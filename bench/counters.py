"""Size counters of a traced pass.

The span observers only keep references to what the program built (SNF
inputs, complexes, LES reports); the counting itself happens in
:meth:`Counters.after_op`, between operations, outside the timed region.
"""

from __future__ import annotations

from bandkh import emit_diagram

COUNTS = ("snf_calls", "snf_cells", "snf_distinct", "states", "max_block",
          "nnz", "cells", "les_positions")


def dense_block_sizes(cx) -> tuple[int, int, int, int]:
    """(states, largest bucket, nonzeros, stored cells) of one complex."""
    states = largest = nnz = cells = 0
    for key in cx.buckets:
        dim = cx.dim(key)
        states += dim
        largest = max(largest, dim)
        block = cx.differential(key)
        cells += len(block) * dim
        nnz += sum(len(row) - row.count(0) for row in block)
    return states, largest, nnz, cells


class Counters:
    """Work counts of one pass, plus the expected sizes of named inputs.

    ``expected`` maps an input name to the (states, largest block) its
    unfrozen complex must have; ``texts`` maps input text to input name.
    """

    def __init__(self, expected: dict[str, tuple[int, int]],
                 texts: dict[str, str]):
        self.expected = expected
        self.texts = texts
        self.snf_inputs: list = []
        self.complexes: list = []
        self.reports: list = []
        self.problems: list[str] = []
        self.seen: set[str] = set()
        self.pass_counts = dict.fromkeys(COUNTS, 0)

    def observers(self) -> dict:
        return {
            "homology.snf": lambda args, _r: self.snf_inputs.append(args[0]),
            "state_complex.enumerate":
                lambda args, _r: self.complexes.append(args[0]),
            "chainmaps.les": lambda _a, report: self.reports.append(report),
        }

    def after_op(self, _result) -> None:
        c = self.pass_counts
        c["snf_calls"] += len(self.snf_inputs)
        c["snf_cells"] += sum(len(m) * (len(m[0]) if m else 0)
                              for m in self.snf_inputs)
        c["snf_distinct"] += len({tuple(map(tuple, m)) for m in self.snf_inputs})
        for cx in self.complexes:
            states, largest, nnz, cells = dense_block_sizes(cx)
            c["states"] += states
            c["max_block"] = max(c["max_block"], largest)
            c["nnz"] += nnz
            c["cells"] += cells
            name = None if cx.frozen else self.texts.get(emit_diagram(cx.diagram))
            if name in self.expected:
                self.seen.add(name)
                if (states, largest) != self.expected[name]:
                    self.problems.append(
                        f"{name}: {states} states, largest block {largest}; "
                        f"expected {self.expected[name]}")
        c["les_positions"] += sum(r.positions_checked for r in self.reports)
        self.snf_inputs.clear()
        self.complexes.clear()
        self.reports.clear()

    def missing(self) -> list[str]:
        return [f"{name}: no complex of this input was traced"
                for name in self.expected if name not in self.seen]
