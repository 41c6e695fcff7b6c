"""Command line front end for the whole toolkit.

One executable, one subcommand per pipeline: capacities, the maximal
entropy walk, file entropy coders, lattice samplers, statistical
descriptions, the strip codec, both heuristic writers, and the frozen
reference report.  Every run prints its resolved configuration to stderr
and routes all randomness through one --seed, so identical argv gives
byte-identical output.  Exit codes: 0 success, 1 data error, 2 usage.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import ans
from . import experiments as exp
from . import lattice as lat
from . import spectral as spec
from . import strip as st
from .spectral import _fmt

class UsageError(Exception):
    """Bad flag combination or malformed flag value; exits 2."""


_DATA_ERRORS = (ValueError, KeyError, OSError, ans.CapacityExceeded,
                spec.NoConvergence, lat.TooLarge, MemoryError)


def _bits_from_bytes(data: bytes) -> bytes:
    """Bits of each byte, most significant first, one byte each."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tobytes()


def _bytes_from_bits(bits) -> bytes:
    """Inverse of `_bits_from_bytes`: bits as bytes of 0s and 1s, a list or
    a uint8 array."""
    if len(bits) % 8:
        raise ValueError("bit count %d is not a whole number of bytes" % len(bits))
    return np.packbits(np.frombuffer(bytes(bits), dtype=np.uint8)).tobytes()


def _emit(args, data: bytes) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("latin-1"))


def _parse_shape(token: str):
    try:
        r, c = token.lower().split("x")
        rows, cols = int(r), int(c)
    except ValueError:
        raise UsageError("bad shape %r, expected ROWSxCOLS" % token)
    if rows < 1 or cols < 1:
        raise UsageError("shape sides must be positive")
    return tuple(sorted((i, j) for i in range(rows) for j in range(cols)))


def _check_sizes(args, **least) -> None:
    """Usage error for the first size flag --name that is given (not None)
    and below least[name]."""
    for name, low in least.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise UsageError("--%s must be at least %d" % (name, low))


# ---------------------------------------------------------------------------
# subcommands


def cmd_capacity(args) -> int:
    if args.width:  # 0: not given
        _check_sizes(args, width=1)
    name = args.model
    print("model %s" % name)
    if name.startswith("k-model:"):
        k = int(name.split(":", 1)[1])
        if args.width:
            raise UsageError("--width applies to 2-d models only")
        print("capacity %.6f" % spec.kmodel_capacity(k))
        print("benefit %d%%" % spec.kmodel_benefit(k))
        return 0
    model = lat.model_preset(name)
    if model.dimension == 1:
        if args.width:
            raise UsageError("--width applies to 2-d models only")
        graph = spec.build_from_constraints(lat.window_graph(model))
        print("capacity %.6f" % math.log2(spec.dominant_eigs(graph).value))
        return 0
    if not args.width:
        raise UsageError("2-d models need --width for the strip bound")
    print("width %d" % args.width)
    print("boundary %s" % args.boundary)
    print("capacity %.6f" % st.strip_capacity(model, args.width, args.boundary))
    return 0


def cmd_merw(args) -> int:
    graph = spec.load_graph(Path(args.graph).read_text())
    eigs = spec.dominant_eigs(graph)
    coder = spec.merw_coder(graph, eigs)
    sys.stdout.write(spec.report_text(graph, eigs, coder))
    for i in range(graph.size):
        print("S[%d] = %s" % (i, " ".join(_fmt(x) for x in coder.transition[i])))
    if args.path:
        path = [int(x) for x in args.path.split(",")]
        print("path_prob = %s" % _fmt(spec.path_prob(coder, path)))
    return 0


def _check_table(precision: int, digit_bits: int) -> None:
    if precision < 1:
        raise UsageError("--precision must be positive")
    if ((1 << digit_bits) - 1) << precision > ans.MAX_TABLE_SLOTS:
        raise UsageError("table of (2^%d - 1) * 2^%d slots exceeds %d"
                         % (digit_bits, precision, ans.MAX_TABLE_SLOTS))


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError("bad %s %r" % (what, text))


def _code_file(args, qs, digit_bits: int, read, write, alphabet: int,
               forbidden: bool = False) -> int:
    """Shared body of `abs` and `ans`.  Encode turns the input file into
    symbols with `read` and stores them as an ANS2 container; decode reads
    the container's own table, so the law flags are only validated there,
    and `write` turns the symbols, each below `alphabet`, back into bytes
    (for decode and for --verify, which rereads as decode does)."""
    l = 1 << args.precision
    ans.largest_remainder(l, qs)  # refuses a law that starves a symbol
    if args.mode == "encode":
        data = Path(args.infile).read_bytes()
        syms = read(data)
        table = ans.ans_build_table(qs, l, 1 << digit_bits, args.key)
        digits, states = ans.ans_stream_encode(syms, table)
        blob = ans.pack_container(table, states, digits, len(syms))
        if args.verify and write(ans.decode_container(blob, forbidden)) != data:
            raise ans.CorruptStream("verification reread mismatch")
        Path(args.out).write_bytes(blob)
        print("symbols %d" % len(syms))
        print("stored_bits %d" % ans.stream_bits(len(digits), table, len(states)))
        return 0
    syms = ans.decode_container(Path(args.infile).read_bytes(), forbidden=forbidden)
    if len(syms) and syms.max() >= alphabet:
        raise ValueError("decoded symbol %d outside the output's 0..%d"
                         % (syms.max(), alphabet - 1))
    Path(args.out).write_bytes(write(syms.astype(np.uint8)))
    print("symbols %d" % len(syms))
    return 0


def cmd_abs(args) -> int:
    q = _parse_fraction(args.q, "--q")
    if not 0 < q < 1:
        raise UsageError("q must lie strictly inside (0, 1)")
    _check_table(args.precision, 1)
    return _code_file(args, [1 - q, q], 1, _bits_from_bytes, _bytes_from_bits, 2)


def cmd_ans(args) -> int:
    qs = [_parse_fraction(tok, "--probs entry") for tok in args.probs.split(",")]
    if any(q <= 0 for q in qs) or sum(qs) != 1:
        raise UsageError("probabilities must be positive and sum to 1")
    if not 1 <= args.digit_bits <= 8:
        raise UsageError("--digit-bits must be in 1..8")
    _check_table(args.precision, args.digit_bits)
    n = len(qs)
    if args.forbidden_eps:
        qs = ans.forbidden_symbol_wrap(qs, _parse_fraction(args.forbidden_eps,
                                                            "--forbidden-eps"))

    def read(data: bytes) -> bytes:
        # the bytes themselves are the symbols
        if data and np.frombuffer(data, dtype=np.uint8).max() >= n:
            raise ValueError("input byte outside the %d-symbol alphabet" % n)
        return data

    def write(syms) -> bytes:
        return np.asarray(syms, dtype=np.uint8).tobytes()

    return _code_file(args, qs, args.digit_bits, read, write, 256,
                      forbidden=bool(args.forbidden_eps))


def cmd_sample(args) -> int:
    _check_sizes(args, rows=1, cols=1, samples=1, warmup=0, spacing=0)
    model = lat.model_preset(args.model)
    shape = (args.cols,) if model.dimension == 1 else (args.rows, args.cols)
    try:
        grids = lat.sample_uniform(shape, model, seed=args.seed,
                                   samples=args.samples, boundary=args.boundary)
        sampler = "exact"
    except lat.Unsupported:
        grids = lat.thermalize(shape, model, seed=args.seed, samples=args.samples,
                               warmup_sweeps=args.warmup,
                               spacing_moves=args.spacing, boundary=args.boundary)
        sampler = "chain"
    print("# sampler %s" % sampler, file=sys.stderr)
    _emit(args, b"".join(lat.save_grid(g) for g in grids))
    return 0


def cmd_describe(args) -> int:
    _check_sizes(args, rows=1, cols=1)
    model = lat.model_preset(args.model)
    shapes = [_parse_shape(tok) for tok in args.shapes.split(",")]
    if model.dimension == 1:
        if any(x[0] != 0 for s in shapes for x in s):
            raise UsageError("chain shapes must be 1xC")
        shapes = [tuple((j,) for _, j in s) for s in shapes]
    context = None
    if args.ploc:
        origin = (0,) * model.dimension
        context = tuple(sorted(x for x in model.neighborhood if x != origin))
        if not context:
            raise ValueError("model has no neighbourhood to condition on")
        shapes.append(tuple(sorted(model.neighborhood)))
    if args.exact:
        if model.dimension == 1:
            region = lat.segment(args.cols, -(args.cols // 2))
        else:
            region = lat.rect(args.rows, args.cols,
                              (-(args.rows // 2), -(args.cols // 2)))
        desc = lat.exact_description(region, model, shapes,
                                     boundary=args.boundary)
    else:
        if model.dimension == 1:
            raise UsageError("empirical description works on 2-d samples")
        if not args.infile:
            raise UsageError("empirical description needs --in sample grids")
        desc = lat.empirical_description(
            lat.load_grids(Path(args.infile).read_bytes()), shapes,
            model.alphabet)
    print("normalization_error %s" % _fmt(desc.normalization_error()))
    for shape in sorted(desc.tables):
        cells = ";".join("%d,%d" % x if len(x) == 2 else "%d" % x
                         for x in shape)
        for assign in sorted(desc.tables[shape]):
            word = "".join(str(s) for s in assign)
            print("p[%s][%s] = %s" % (cells, word, _fmt(desc.tables[shape][assign])))
    if args.ploc:
        print("ploc_violation %s" % _fmt(lat.check_pLOC(desc, model, [context])))
    return 0


def cmd_strip(args) -> int:
    _check_sizes(args, width=1, columns=1, trials=1, jobs=1)
    model = lat.model_preset(args.model)
    if args.mode in ("build", "capacity"):
        strip = st.strip_model(model, args.width, args.boundary)
        if args.mode == "build":
            print("columns %d" % len(strip.columns))
            print("degenerate_cyclic %s" % strip.degenerate_cyclic)
        print("capacity %.6f" % strip.capacity)
        return 0
    if args.mode == "encode":
        if not args.infile:
            raise UsageError("encode needs --in")
        # --verify rereads the file as decode does, on this cached strip
        strip = st.codec_strip(model, args.width, args.boundary)
        codec = st.LatticeCodec(strip, args.precision)
        bits = _bits_from_bytes(Path(args.infile).read_bytes())
        res = codec.encode(bits, args.columns)
        text = st.encode_to_text(strip, res, len(bits), args.precision)
        if args.verify and st.decode_text(text) != bits:
            raise ans.CorruptStream("verification reread mismatch")
        _emit(args, text)
        print("consumed %d" % res.consumed, file=sys.stderr)
        return 0
    if args.mode == "decode":
        if not args.infile or not args.out:
            raise UsageError("decode needs --in and --out")
        bits = st.decode_text(Path(args.infile).read_bytes())
        Path(args.out).write_bytes(_bytes_from_bits(bits))
        return 0
    # the trials' strip, built here so that forked workers inherit it
    capacity = st.codec_strip(model, args.width, args.boundary).capacity
    rep = st.evaluate_rate(args.model, args.width, args.columns,
                           trials=args.trials, boundary=args.boundary,
                           precision=args.precision, seed=args.seed,
                           jobs=args.jobs, verify=args.verify)
    csv = args.format == "csv"
    if csv:
        print("trial,rate")
    rows = [(("%d" if csv else "rate[%d]") % i, r) for i, r in enumerate(rep.rates)]
    rows += [("mean", rep.mean), ("stderr", rep.stderr), ("capacity", capacity)]
    for name, v in rows + ([] if csv else [("gap", capacity - rep.mean)]):
        print(("%s,%s" if csv else "%s = %s") % (name, _fmt(v)))
    return 0


def cmd_algo1(args) -> int:
    _check_sizes(args, side=1, rows=1, cols=1, trials=1, jobs=1)
    if args.mode == "rate":
        q = args.q
        if q is None:
            q, _ = exp.algorithm1_optimum()
            print("optimal_q = %s" % _fmt(q))
        closed = exp.algorithm1_entropy(q)
        rep = exp.algorithm1_rate(q, side=args.side, trials=args.trials,
                                  seed=args.seed, precision=args.precision,
                                  jobs=args.jobs, verify=args.verify)
        for name, v in (("closed_form", closed), ("mean", rep.mean),
                        ("stderr", rep.stderr), ("gap", closed - rep.mean)):
            print("%s = %s" % (name, _fmt(v)))
        return 0
    if args.mode == "encode":
        if not args.infile:
            raise UsageError("encode needs --in")
        if args.q is None:
            args.q, _ = exp.algorithm1_optimum()
        bits = _bits_from_bytes(Path(args.infile).read_bytes())
        res = exp.algorithm1_encode((args.rows, args.cols), args.q, bits,
                                    args.precision)
        states = (res.final_state,) + res.lane_states
        text = st.format_encoded("algo1", res.grid, q=args.q, R=args.precision,
                                 x=",".join(map(str, states)), bits=len(bits))
        if args.verify and _algo1_decode_text(text) != bits:
            raise ans.CorruptStream("verification reread mismatch")
        _emit(args, text)
        return 0
    if not args.infile or not args.out:
        raise UsageError("decode needs --in and --out")
    bits = _algo1_decode_text(Path(args.infile).read_bytes())
    Path(args.out).write_bytes(_bytes_from_bits(bits))
    return 0


def _algo1_decode_text(text: bytes) -> bytes:
    """Payload bits, one byte each, of an algo1 encoded-lattice file.  Its
    x= lists the even pass's K lane states, lane 0 first, K from the grid,
    q and R (`algorithm1_lanes`), or one state, as files were written
    before lanes; a list of another length is refused unread."""
    meta, grid = st.parse_encoded(text, "algo1", ("q", "R", "x", "bits"))
    q = float(meta["q"])
    (R,), (nbits,) = st.header_ints(meta, "R"), st.header_ints(meta, "bits")
    x = st.header_ints(meta, "x", 1, exp.algorithm1_lanes(grid.shape, q, R))
    return exp.algorithm1_decode(grid, q, x[0], nbits, R, x[1:])


def cmd_algo2(args) -> int:
    _check_sizes(args, side=exp.ALGO2_MIN_SIDE, trials=1, bins=1, jobs=1)
    profile = exp.DEFAULT_PROFILE
    if args.profile:
        try:
            profile = exp.ChargingProfile(
                tuple(float(x) for x in args.profile.split(",")))
        except ValueError as e:
            raise UsageError("--profile %r: %s" % (args.profile, e)) from None
    rep = exp.algorithm2_simulate(args.side, trials=args.trials,
                                  profile=profile, seed=args.seed,
                                  bins=args.bins, jobs=args.jobs)
    csv = args.format == "csv"
    if csv:
        print("name,value,stderr")
    for name, (v, s) in sorted(rep.scalars.items()):
        print(("%s,%s,%s" if csv else "%s = %s +- %s") % (name, _fmt(v), _fmt(s)))
    if csv:
        for cname, (xs, ys) in sorted(rep.curves.items()):
            print("curve,%s" % cname)
            for x, y in zip(xs, ys):
                print("%s,%s" % (_fmt(x), _fmt(y)))
    return 0


def cmd_report(args) -> int:
    rows, ok = exp.reproduce_tables()
    if args.format == "csv":
        print("name,computed,reference,tolerance,pass")
        for r in rows:
            print("%s,%s,%s,%s,%s" % (r.name, r.computed, r.reference,
                                      r.tolerance, r.passed))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            print("%-*s  %12s  %12s  (tol %s)  %s"
                  % (width, r.name, r.computed, r.reference, r.tolerance,
                     "pass" if r.passed else "FAIL"))
    print("verdict %s" % ("pass" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0)


def _add_jobs(p):
    p.add_argument("--jobs", type=int, default=1)


def _add_format(p):
    p.add_argument("--format", choices=("text", "csv"), default="text")


def _add_io(p, required=False):
    p.add_argument("--in", dest="infile", required=required, default="")
    p.add_argument("--out", required=required, default="")
    p.add_argument("--verify", action="store_true")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="latticecode", description=__doc__)
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("capacity", help="1-d automaton or 2-d strip capacity")
    p.add_argument("--model", default="hard-square")
    p.add_argument("--width", type=int, default=0)
    p.add_argument("--boundary", choices=("zero", "cyclic"), default="zero")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("merw", help="maximal entropy walk of a weighted graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--path", default="")
    p.set_defaults(func=cmd_merw)

    p = sub.add_parser("abs", help="binary entropy coder over a file")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("--q", default="0.5", help="probability of bit 1")
    p.add_argument("--precision", type=int, default=12)
    p.add_argument("--key", type=int, default=0)
    _add_io(p, required=True)
    p.set_defaults(func=cmd_abs)

    p = sub.add_parser("ans", help="n-symbol entropy coder over a file")
    p.add_argument("mode", choices=("encode", "decode"))
    p.add_argument("--probs", default="0.5,0.5")
    p.add_argument("--precision", type=int, default=12)
    p.add_argument("--digit-bits", type=int, default=1)
    p.add_argument("--key", type=int, default=0)
    p.add_argument("--forbidden-eps", default="")
    _add_io(p, required=True)
    p.set_defaults(func=cmd_ans)

    p = sub.add_parser("sample", help="uniform valid valuations: exact column "
                       "draws for 2x2-window binary models up to %d rows, "
                       "else a flip chain, uniform when every forbidden "
                       "pattern asks only 1s" % lat.EXACT_MAX_ROWS)
    p.add_argument("--model", default="hard-square")
    p.add_argument("--rows", type=int, default=8)
    p.add_argument("--cols", type=int, default=8)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--warmup", type=int, default=5, help="flip chain only")
    p.add_argument("--spacing", type=int, default=None, help="flip chain only")
    p.add_argument("--boundary", choices=("free", "zero", "cyclic"),
                   default="free")
    p.add_argument("--out", default="")
    _add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("describe", help="pattern probabilities of a model")
    p.add_argument("--model", default="hard-square")
    p.add_argument("--shapes", default="1x1")
    p.add_argument("--in", dest="infile", default="")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--boundary", choices=("free", "zero", "cyclic"),
                   default="free")
    p.add_argument("--ploc", action="store_true")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("strip", help="width-n strip codec pipelines")
    p.add_argument("mode",
                   choices=("build", "capacity", "encode", "decode",
                            "evaluate"))
    p.add_argument("--model", default="hard-square")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--boundary", choices=("zero", "cyclic"), default="zero")
    p.add_argument("--columns", type=int, default=256)
    p.add_argument("--precision", type=int, default=16)
    p.add_argument("--trials", type=int, default=3)
    _add_io(p)
    _add_seed(p)
    _add_jobs(p)
    _add_format(p)
    p.set_defaults(func=cmd_strip)

    p = sub.add_parser("algo1", help="two-pass checkerboard writer")
    p.add_argument("mode", choices=("rate", "encode", "decode"), nargs="?",
                   default="rate")
    p.add_argument("--q", type=float, default=None,
                   help="write probability; optimal when omitted")
    p.add_argument("--side", type=int, default=256)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--precision", type=int, default=16)
    _add_io(p)
    _add_seed(p)
    _add_jobs(p)
    p.set_defaults(func=cmd_algo1)

    p = sub.add_parser("algo2", help="random-order writer measurement")
    p.add_argument("--side", type=int, default=100)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--profile", default="",
                   help="comma-separated polynomial coefficients")
    _add_seed(p)
    _add_jobs(p)
    _add_format(p)
    p.set_defaults(func=cmd_algo2)

    p = sub.add_parser("report", help="recompute the frozen reference values")
    _add_format(p)
    p.set_defaults(func=cmd_report)

    return top


def _log_config(args) -> None:
    pairs = sorted((k, v) for k, v in vars(args).items() if k != "func")
    print("# " + " ".join("%s=%s" % kv for kv in pairs), file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _log_config(args)
    try:
        return args.func(args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except _DATA_ERRORS as e:
        print("error: %s" % (str(e) or "out of memory"), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
