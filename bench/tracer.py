"""Span and count recorders wrapped around latticecode's public functions.

The tracer patches the package from the outside: every public function of
the traced modules is replaced, in every latticecode namespace that binds
it, by a wrapper that times the call, and a few hot methods are patched on
their classes.  Spans are aggregated in memory as they close (a codec run
makes about a million of them), keyed by function and by caller:

- inclusive seconds per function, counting only its outermost call;
- self seconds, the span minus the spans of its direct children;
- calls per (caller, function) pair, the aggregated call graph;
- counts read from public return values (states, digits, bits, ...).

`layer_metrics` turns those aggregates into the per-layer metric names the
benchmark reports.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("cli", "strip", "spectral", "ans", "lattice", "experiments", "rng")

# Methods that carry the per-node and per-draw work, patched on their class.
METHODS = (
    ("strip", "LatticeCodec", "encode"),
    ("strip", "LatticeCodec", "decode"),
    ("ans", "AbsStreamDecoder", "draw"),
    ("ans", "AbsStreamEncoder", "absorb"),
    ("rng", "SplitMix64", "next_u64"),
)

# mix64 runs inside every next_u64 call; a second wrapper there would double
# the cost on the hottest path and its time is already in rng.next_u64_s.
SKIP = frozenset({"rng.mix64"})

# Metrics that cover several functions: union of their spans, so a member
# called from another member is not counted twice.
GROUPS = {
    "spectral.kmodel_graph": ("spectral.kmodel",),
    "spectral.kmodel_capacity": ("spectral.kmodel",),
    "spectral.kmodel_benefit": ("spectral.kmodel",),
    "ans.ans_stream_decode": ("ans.stream_decode",),
    "ans.ans_stream_decode_checked": ("ans.stream_decode",),
    "ans.ans_build_table": ("ans.build_table",),
    "ans.ans_build_table_precise": ("ans.build_table",),
}

NEXT_U64 = "rng.SplitMix64.next_u64"


class Tracer:
    """Aggregating span recorder; `install` patches, `restore` undoes it."""

    def __init__(self):
        self.stack = [[None, 0.0]]        # frames: [key, child seconds]
        self.depth = Counter()            # open spans per key or group
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()            # (caller key, key) -> calls
        self.counts = Counter()
        self.maxima = {}
        self._undo = []
        self._hooks = {
            "strip.strip_model": self._on_strip_model,
            "spectral.build_from_constraints": self._on_graph,
            "spectral.dominant_eigs": self._on_eigs,
            "strip.LatticeCodec.encode": self._on_codec_encode,
            "ans.ans_stream_encode": self._on_stream_encode,
            "ans.stream_bits": self._on_stream_bits,
            "lattice.scan": self._on_scan,
        }

    # -- return-value counts ------------------------------------------------

    def _on_strip_model(self, r, args):
        self.counts["strip.states"] += len(r.columns)
        self.counts["strip.edges"] += int(np.count_nonzero(r.graph.weights))

    def _on_graph(self, r, args):
        self.counts["spectral.pair_checks"] += r.size * r.size

    def _on_eigs(self, r, args):
        self.counts["spectral.eig_iterations"] += r.iterations
        self.maxima["spectral.eig_residual"] = max(
            self.maxima.get("spectral.eig_residual", 0.0), float(r.residual))

    def _on_codec_encode(self, r, args):
        self.counts["strip.nodes"] += int(r.grid.size)
        self.counts["strip.bits_consumed"] += r.consumed
        self.counts["strip.bits_padded"] += r.padded

    def _on_stream_encode(self, r, args):
        self.counts["ans.digits"] += len(r[0])

    def _on_stream_bits(self, r, args):
        self.counts["ans.stored_bits"] += r

    def _on_scan(self, r, args):
        self.counts["lattice.scan_cells"] += int(np.asarray(args[0]).size)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, key: str, fn):
        stack, depth = self.stack, self.depth
        inclusive, self_s, calls = self.inclusive, self.self_s, self.calls
        groups = (key,) + GROUPS.get(key, ())
        hook = self._hooks.get(key)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            calls[stack[-1][0], key] += 1
            stack.append(frame)
            for g in groups:
                depth[g] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                stack[-1][1] += d
                self_s[key] += d - frame[1]
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        inclusive[g] += d
            if hook is not None:
                hook(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module("latticecode." + m) for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                key = "%s.%s" % (short, name)
                if (name.startswith("_") or key in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(key, obj))
        # rebind in every namespace that holds the same function object,
        # e.g. experiments' `from .spectral import dominant_eigs`
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))    # `wrapped` keeps obj alive
                if hit is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self.wrap("%s.%s.%s" % (short, cls_name, meth), orig))

    def restore(self) -> None:
        for owner, name, obj in reversed(self._undo):
            setattr(owner, name, obj)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def calls_of(self, key: str, caller=False) -> int:
        """Calls of `key`; with `caller` set, only those made from that span."""
        return sum(n for (c, k), n in self.calls.items()
                   if k == key and (caller is False or c == caller))

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value, all of them, zero where unused."""
        inc, own = self.inclusive, self.self_s
        out = {
            "strip.strip_model_s": inc["strip.strip_model"],
            "strip.strip_model.self_s": own["strip.strip_model"],
            "strip.encode_s": inc["strip.LatticeCodec.encode"],
            "strip.encode.self_s": own["strip.LatticeCodec.encode"],
            "strip.decode_s": inc["strip.LatticeCodec.decode"],
            "strip.decode.self_s": own["strip.LatticeCodec.decode"],
            "spectral.build_from_constraints_s":
                inc["spectral.build_from_constraints"],
            "spectral.dominant_eigs_s": inc["spectral.dominant_eigs"],
            "spectral.eig_residual": self.maxima.get("spectral.eig_residual", 0.0),
            "spectral.merw_coder_s": inc["spectral.merw_coder"],
            "spectral.kmodel_s": inc["spectral.kmodel"],
            "experiments.reproduce_tables.self_s":
                own["experiments.reproduce_tables"],
            "experiments.algorithm1_encode.self_s":
                own["experiments.algorithm1_encode"],
            "experiments.algorithm1_decode.self_s":
                own["experiments.algorithm1_decode"],
            "experiments.algorithm2_simulate.self_s":
                own["experiments.algorithm2_simulate"],
            "ans.abs_draw_calls": self.calls_of("ans.AbsStreamDecoder.draw"),
            "ans.abs_draw_s": inc["ans.AbsStreamDecoder.draw"],
            "ans.abs_absorb_calls": self.calls_of("ans.AbsStreamEncoder.absorb"),
            "ans.abs_absorb_s": inc["ans.AbsStreamEncoder.absorb"],
            "ans.stream_encode_s": inc["ans.ans_stream_encode"],
            "ans.stream_decode_s": inc["ans.stream_decode"],
            "ans.pack_s": inc["ans.pack_container"],
            "ans.unpack_s": inc["ans.unpack_container"],
            "ans.build_table_s": inc["ans.build_table"],
            "lattice.scan_s": inc["lattice.scan"],
            "lattice.save_grid_s": inc["lattice.save_grid"],
            "lattice.load_grid_s": inc["lattice.load_grid"],
            "lattice.thermalize_s": inc["lattice.thermalize"],
            # the flip chain draws one next_u64 per move
            "lattice.thermalize_moves":
                self.calls_of(NEXT_U64, caller="lattice.thermalize"),
            "lattice.empirical_description_s":
                inc["lattice.empirical_description"],
            "cli.self_s": sum(v for k, v in own.items() if k.startswith("cli.")),
            "rng.next_u64_calls": self.calls_of(NEXT_U64),
            "rng.next_u64_s": inc[NEXT_U64],
        }
        for name in COUNTS:
            out.setdefault(name, self.counts[name])
        return out


# Counts that must repeat exactly for one seed; they come from return values
# and call counts, never from clocks.
COUNTS = (
    "strip.states", "strip.edges", "strip.nodes", "strip.bits_consumed",
    "strip.bits_padded", "spectral.pair_checks", "spectral.eig_iterations",
    "ans.abs_draw_calls", "ans.abs_absorb_calls", "ans.digits",
    "ans.stored_bits", "lattice.scan_cells", "lattice.thermalize_moves",
    "rng.next_u64_calls",
)
