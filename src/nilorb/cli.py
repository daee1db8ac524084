"""Command-line front end: list, describe, and verify orbit catalogs.

A command line that names a command (``list``, ``describe``, ``verify``) is
parsed by that command's parser alone.  The program-level parser handles
only help, usage errors and unknown commands, with the same bytes and exit
codes as when it parsed every command line.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .catalog import (AlgebraSpec, Datum, OrbitRecord, datum_membership_error,
                      enumerate_orbits, fiber_count, orbit_record_bound)
from .centralizers import (CentralizerReport, centralizer_dim_triple,
                           centralizer_report, expected_orbit_dim)
from .diagrams import SignedDiagram
from .families import COMPLEX, FAMILIES, FAMILY_SPECS
from .homotopy import (sample_k_element, signed_block_totals, verify_K_homomorphism,
                       verify_K_membership)
from .matrices import (ExactMatrix, compare, compare_products,
                       congruence_signature, conj_transpose)
from .partitions import Partition
from .scalars import value_json, value_text
from .triples import (adapted_basis, build_triple, jordan_type,
                      sigma_transpose, standard_adapted_gram)

SCHEMA_VERSION = 1

_CHECK_ORDER = (
    "[H,X]=2X",
    "[H,Y]=-2Y",
    "[X,Y]=H",
    "jordan-type",
    "gram-symmetry",
    "gram-invariance",
    "gram-signature",
    "adapted-basis",
    "block-accounting",
    "centralizer-dim",
    "zero-orbit-quotient",
    "embedding-homomorphism",
    "K-membership",
)


#: Work limit of one ``list`` or ``verify`` run: the sum over its algebras
#: of (orbit records) x size^2, times :data:`VERIFY_WEIGHT` for ``verify``.
#: ``list --algebra sl_r --n 24`` (estimate 907,200) takes under a second;
#: ``--n 25`` (1,223,750) is refused.  ``describe`` builds one orbit record,
#: so its estimate is size^2: ``--n 1000`` runs and ``--n 1001`` is refused.
MAX_WORK = 1_000_000

#: Weight of a ``verify`` run in the work estimate.  A ``list --format
#: json`` record costs 0.3 us (``sl_r --n 24``) to 4.5 us (``sp_pq --p 6
#: --q 6``) per unit of records x size^2 (2-core Xeon VM, Python 3.11), a
#: ``verify`` record 10 to 18 us: in three whole-process runs each,
#: ``sl_c --n 20`` took 4.4 to 4.5 s, ``sl_h --n 20`` 4.0 to 4.4 s and
#: ``sl_r --n 20`` 2.4 to 2.6 s.  With this weight ``verify --algebra sl_c
#: --n 21`` (estimate 1,047,816), which ran for 6.3 to 7.1 s with the limit
#: lifted, is refused.  The record counts follow the parity rules, so the
#: largest admitted so/sp runs take under 5 s each: so_c 25 4.0 to 4.3 s,
#: sp_c 12 3.1 to 3.3 s, so_pq(8,8) 0.8 to 0.9 s and sp_pq(7,8) 1.7 to 1.9 s.
VERIFY_WEIGHT = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

@functools.cache
def _build_parsers() -> Tuple[argparse.ArgumentParser,
                              Dict[str, argparse.ArgumentParser]]:
    """The program-level parser and each command's parser by name, built
    once per process: argparse trees are reference cycles, so a fresh tree
    per command is garbage for the cyclic collector.

    :func:`main` parses a command line that names a command with that
    command's parser alone; the program-level parser handles only help,
    usage errors and unknown commands.
    """
    parser = argparse.ArgumentParser(
        prog="nilorb",
        description="Enumerate, construct, and verify nilpotent adjoint "
                    "orbits of the classical real and complex simple Lie "
                    "algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--algebra", required=True, choices=FAMILIES,
                        help="algebra family")
    common.add_argument("--n", type=int,
                        help="rank parameter (sp_c matrices are 2n x 2n)")
    common.add_argument("--p", type=int, help="positive part of the signature")
    common.add_argument("--q", type=int, help="negative part of the signature")
    common.add_argument("--format", choices=("json", "table"), default="table",
                        help="output format (default: table)")

    p_list = sub.add_parser("list", parents=[common],
                            help="enumerate the orbit catalog")
    p_desc = sub.add_parser("describe", parents=[common],
                            help="construct one orbit in full detail")
    p_desc.add_argument("--datum", required=True,
                        help='partition, e.g. "3,2,2,1"')
    p_desc.add_argument("--signs", default=None,
                        help='sign counts "d:p_d" per part, e.g. "3:0,1:2"')
    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the exact verification suite")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized checks (default: 0)")
    p_ver.add_argument("--max-verify-n", type=int, default=6,
                       help="size cap for the verify sweep (default: 6)")
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="corrupt one triple to exercise failure paths")
    return parser, {"list": p_list, "describe": p_desc, "verify": p_ver}


def _algebra_from_args(args) -> AlgebraSpec:
    try:
        if FAMILY_SPECS[args.algebra].signed:
            if args.p is None or args.q is None:
                raise UsageError(f"{args.algebra} needs --p and --q")
            if args.n is not None:
                raise UsageError(f"{args.algebra} takes --p/--q, not --n")
            return AlgebraSpec(args.algebra, p=args.p, q=args.q)
        if args.n is None:
            raise UsageError(f"{args.algebra} needs --n")
        if args.p is not None or args.q is not None:
            raise UsageError(f"{args.algebra} takes --n, not --p/--q")
        return AlgebraSpec(args.algebra, n=args.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _admit(specs: Iterable[AlgebraSpec], weight: int = 1) -> List[AlgebraSpec]:
    """The algebras of one run, unless its work estimate exceeds ``MAX_WORK``.

    The estimate adds ``weight`` x :func:`orbit_record_bound` x size^2 per
    algebra, before any orbit is enumerated or built, and stops at the
    algebra that takes it over the limit, so an oversized sweep is never
    listed in full.
    """
    measure = "orbit records x size^2"
    if weight != 1:
        measure += f" x {weight} (the verify weight)"
    admitted, work = [], 0
    for a in specs:
        square = weight * a.size ** 2
        # Every algebra has its zero orbit, so a square over the limit needs no count.
        work += square if square > MAX_WORK else square * orbit_record_bound(a)
        if work > MAX_WORK:
            raise UsageError(f"work limit: {measure}, summed over the run's algebras, "
                             f"reaches {work:,} at {a}; the limit is {MAX_WORK:,}")
        admitted.append(a)
    return admitted


def _verify_specs(args) -> List[AlgebraSpec]:
    """The algebras a verify run sweeps: one explicit, or all small sizes."""
    if args.n is not None or args.p is not None or args.q is not None:
        return _admit([_algebra_from_args(args)], VERIFY_WEIGHT)
    cap = args.max_verify_n
    name = args.algebra
    spec = FAMILY_SPECS[name]
    if spec.signed:
        smallest = AlgebraSpec(name, p=1, q=1)
        specs = _admit((AlgebraSpec(name, p=p, q=total - p)
                        for total in range(2, cap + 1) for p in range(1, total)),
                       VERIFY_WEIGHT)
    else:
        smallest = AlgebraSpec(name, n=spec.min_n)
        specs = _admit((AlgebraSpec(name, n=n)
                        for n in range(spec.min_n, cap // spec.boxes_per_n + 1)),
                       VERIFY_WEIGHT)
    if not specs:
        raise UsageError(f"--max-verify-n {cap} sweeps no {name} algebra; "
                         f"the smallest, {smallest}, needs --max-verify-n "
                         f"{smallest.size}")
    return specs


def _parse_datum(a: AlgebraSpec, datum_str: str, signs_str: Optional[str]) -> Datum:
    try:
        chunks = datum_str.replace(" ", "").split(",")
        if chunks == [""]:
            raise ValueError("empty partition")
        if "" in chunks:
            raise ValueError("empty part")
        partition = Partition([int(x) for x in chunks])
    except ValueError as exc:
        raise UsageError(f"cannot parse --datum {datum_str!r}: {exc}") from exc
    free_sign = a.family_spec.free_sign
    if free_sign is None:
        if signs_str is not None:
            raise UsageError(f"{a.family} takes plain partitions; drop --signs")
        return partition
    p_by_part: Dict[int, int] = {}
    signs = (signs_str or "").replace(" ", "")
    if signs:
        chunks = signs.split(",")
        if "" in chunks:
            raise UsageError(f"cannot parse --signs {signs_str!r}: empty entry")
        for chunk in chunks:
            try:
                d, p = (int(x) for x in chunk.split(":"))
            except ValueError as exc:
                raise UsageError(
                    f"cannot parse --signs entry {chunk!r}; use d:p_d") from exc
            if d in p_by_part:
                raise UsageError(f"sign data names part {d} twice")
            p_by_part[d] = p
    # The rows without a free sign start with +1.
    for d, t in partition.pairs:
        if d % 2 != free_sign:
            p_by_part.setdefault(d, t)
    try:
        return SignedDiagram(partition, p_by_part)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _matrix_lines(title: str, m: ExactMatrix) -> List[str]:
    """The table of ``m``, each column right-justified to its widest cell.

    A column is as wide as the zero until a nonzero text widens it (no
    text is shorter than the zero's one character).  Each row is a copy
    of one padded zero row with its nonzeros patched in, and the all-zero
    rows share one line.
    """
    zero, rows = m._rendered_nonzeros(value_text)
    widths = [len(zero)] * m.ncols
    for row in rows:
        for c, text in row:
            if len(text) > widths[c]:
                widths[c] = len(text)
    blank = [zero.rjust(w) for w in widths]
    zero_line = f"  [ {'  '.join(blank)} ]"
    lines = [f"{title}:"]
    for row in rows:
        if not row:
            lines.append(zero_line)
            continue
        cells = blank.copy()
        for c, text in row:
            cells[c] = text.rjust(widths[c])
        lines.append(f"  [ {'  '.join(cells)} ]")
    return lines


#: The text of a container's item of exactly these types, made without a
#: call of :func:`_encode`; subclasses take the full path.
_LEAF_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): lambda _: "null"}


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, default=ExactMatrix.to_json)``, byte for
    byte, for a document of str, int, bool, None, :class:`ExactMatrix`,
    lists, tuples and str-keyed dicts.

    With ``indent`` set, ``json.dumps`` runs its pure-Python encoder, one
    generator per nesting level yielding one token at a time; here each
    subtree's text is one ``str.join``.  :func:`_encode` dispatches on the
    exact type first: a container's str, int, bool and None items take
    their text from ``_LEAF_TEXT`` without a call, and only subclasses
    fall through to ``isinstance`` tests.  Two caches live for one call
    and are passed down the recursion: each dict key's quoted text with
    its ``": "``, and each depth's newline-and-indent string with its
    ``","``-prefixed separator, built as the document first reaches that
    depth.  A matrix is rendered from ``ExactMatrix._rendered_nonzeros``:
    the text of each distinct cell is built once, at the cell's depth,
    straight from the component strings of ``scalars.value_json``; one
    zero-row text serves every all-zero row, each other row patches its
    nonzeros into a copy of the zero cells' texts, and the matrix is
    joined from the row texts, so no dense cell grid is built.  Anything
    else, floats and non-str keys included, raises ``TypeError``.
    """
    return _encode(doc, 0, {}, [("\n", ",\n")])


def _encode(o, depth: int, keys: Dict[str, str], levels: List[Tuple[str, str]]) -> str:
    """The text of ``o`` at nesting ``depth`` for :func:`_json_text`.

    ``keys`` maps each dict key met so far to its quoted text and ``": "``;
    ``levels[d]`` holds depth ``d``'s newline-and-indent string and the
    item separator that ends with it.
    """
    t = type(o)
    if t is not dict and t is not list and t is not tuple:
        leaf = _LEAF_TEXT.get(t)
        if leaf is not None:
            return leaf(o)
        if isinstance(o, ExactMatrix):
            return _matrix_text(o, depth)
        # A subclass takes the text of the JSON type it derives from.
        if isinstance(o, str):
            return encode_basestring_ascii(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if not isinstance(o, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    is_dict = isinstance(o, dict)
    if not o:
        return "{}" if is_dict else "[]"
    if len(levels) == depth + 1:
        inner = levels[depth][0] + "  "
        levels.append((inner, "," + inner))
    inner, sep = levels[depth + 1]
    close = levels[depth][0]
    leaf_text = _LEAF_TEXT
    items = []
    if is_dict:
        for k, v in o.items():
            key = keys.get(k)
            if key is None:
                if not isinstance(k, str):
                    raise TypeError(f"keys must be str, not {type(k).__name__}")
                key = keys[k] = encode_basestring_ascii(k) + ": "
            leaf = leaf_text.get(type(v))
            items.append(key + (leaf(v) if leaf else _encode(v, depth + 1, keys, levels)))
        return f"{{{inner}{sep.join(items)}{close}}}"
    for x in o:
        leaf = leaf_text.get(type(x))
        items.append(leaf(x) if leaf else _encode(x, depth + 1, keys, levels))
    return f"[{inner}{sep.join(items)}{close}]"


def _matrix_text(m: ExactMatrix, depth: int) -> str:
    """The text of a matrix at nesting ``depth`` for :func:`_json_text`."""
    if not m.nrows:
        return "[]"
    row_inner = "\n" + "  " * (depth + 1)
    cell_inner = row_inner + "  "
    part_inner = cell_inner + "  "
    # A cell is a list of "num/den" strings, which need no escaping.
    head, sep, tail = f'[{part_inner}"', f'",{part_inner}"', f'"{cell_inner}]'
    zero, rows = m._rendered_nonzeros(
        lambda nums, den: head + sep.join(value_json(nums, den)) + tail)
    cell_sep = "," + cell_inner
    blank = [zero] * m.ncols
    zero_row = f"[{cell_inner}{cell_sep.join(blank)}{row_inner}]" if blank else "[]"
    texts = []
    for row in rows:
        if not row:
            texts.append(zero_row)
            continue
        cells = blank.copy()
        for c, text in row:
            cells[c] = text
        texts.append(f"[{cell_inner}{cell_sep.join(cells)}{row_inner}]")
    return f"[{row_inner}{(',' + row_inner).join(texts)}\n{'  ' * depth}]"


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(widths[i]) for i, c in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def _record_document(rec: OrbitRecord, report: CentralizerReport) -> dict:
    doc = rec.to_json()
    doc["datum_rendered"] = str(rec.datum)
    doc["orbit_dim"] = report.dim_orbit
    doc["centralizer"] = report.to_json()
    h = report.compact
    doc["homotopy"] = None if h is None else h.to_json()
    doc["homotopy_rendered"] = None if h is None else h.rendered()
    return doc


def _cmd_list(args) -> int:
    (a,) = _admit([_algebra_from_args(args)])
    records = enumerate_orbits(a)
    reports = [centralizer_report(a, rec.datum) for rec in records]
    total = sum(r.fiber_count for r in records)
    if args.format == "json":
        print(_json_text({
            "schema": SCHEMA_VERSION,
            "algebra": a.family,
            "params": a.params_json(),
            "low_rank_warning": a.low_rank_warning,
            "total_orbit_count": total,
            "orbit_records": [_record_document(rec, report)
                              for rec, report in zip(records, reports)],
        }))
        return 0
    rows = []
    for rec, report in zip(records, reports):
        datum, fibers, h = str(rec.datum), rec.fiber_count, report.compact
        homotopy = "-" if h is None else h.rendered()
        for k in range(1, fibers + 1):
            rows.append([datum, f"{k}/{fibers}", str(report.dim_orbit), homotopy])
    print(f"orbit catalog for {a}")
    if a.low_rank_warning:
        print("warning: size is below the family's simple range; "
              "small-rank coincidences apply")
    for line in _table(("datum", "orbit", "orbit-dim", "homotopy type"), rows):
        print(line)
    print(f"total orbits: {total}")
    return 0


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def _cmd_describe(args) -> int:
    a = _algebra_from_args(args)
    work = a.size ** 2
    if work > MAX_WORK:
        raise UsageError(f"work limit: one orbit record x size^2 reaches {work:,} "
                         f"at {a}; the limit is {MAX_WORK:,}")
    datum = _parse_datum(a, args.datum, args.signs)
    problem = datum_membership_error(a, datum)
    if problem is not None:
        print(f"datum rejected: {problem}", file=sys.stderr)
        return 2
    record = OrbitRecord(datum, fiber_count(a, datum))
    triple = None if record.is_zero_orbit else build_triple(a, datum)
    report = centralizer_report(a, datum)
    t_matrix = None
    if a.family_spec.has_adapted_basis:
        t_matrix = adapted_basis(a, datum).matrix
    h = report.compact

    if args.format == "json":
        doc = {
            "schema": SCHEMA_VERSION,
            "algebra": a.family,
            "params": a.params_json(),
            "low_rank_warning": a.low_rank_warning,
            "datum": record.to_json()["datum"],
            "datum_rendered": str(datum),
            "fiber_count": record.fiber_count,
            "is_zero_orbit": record.is_zero_orbit,
            "orbit_dim": report.dim_orbit,
            "centralizer": report.to_json(),
            "triple": None if triple is None else triple.to_json(),
            "change_of_basis": t_matrix,
            "homotopy": None if h is None else h.to_json(),
            "homotopy_rendered": None if h is None else h.rendered(),
        }
        print(_json_text(doc))
        return 0
    print(f"{a} orbit datum {datum}")
    if a.low_rank_warning:
        print("warning: size is below the family's simple range; "
              "small-rank coincidences apply")
    print(f"fiber count: {record.fiber_count}")
    print(f"orbit dimension: {report.dim_orbit}")
    print(f"centralizer dims: triple={report.dim_z_triple} "
          f"nilpotent={report.dim_z_X} ambient={report.dim_g} "
          f"expected-reductive={report.expected_reductive} "
          f"match={'yes' if report.match else 'NO'}")
    if h is not None:
        print(f"homotopy type: {h.rendered()}")
        print(f"dims: M={h.dim_M} K={h.dim_K} quotient={h.dim_quotient}")
        if record.is_zero_orbit:
            print("zero orbit: K = M, the quotient is a point")
    if triple is not None:
        for title, m in (("X", triple.X), ("H", triple.H), ("Y", triple.Y)):
            print("\n".join(_matrix_lines(title, m)))
        if triple.gram is not None:
            print("\n".join(_matrix_lines("gram", triple.gram)))
    if t_matrix is not None:
        print("\n".join(_matrix_lines("adapted basis (columns)", t_matrix)))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _once(compute: Callable[[], object]) -> Callable[[], object]:
    """``compute`` run on the first call only: each call returns its result
    or raises the exception it raised.  Unlike ``functools.cache`` it keeps
    the exception too, so a failed value is not computed again (a second
    K sample would draw other numbers)."""
    outcome: list = []

    def value():
        if not outcome:
            try:
                outcome.append((True, compute()))
            except Exception as exc:
                outcome.append((False, exc))
        ok, result = outcome[0]
        if not ok:
            raise result
        return result
    return value


def _verify_orbit(a: AlgebraSpec, rec: OrbitRecord, seed: int, index: int,
                  inject_fault: bool) -> List[Tuple[str, bool, str]]:
    """All checks for one orbit: (check name, passed, detail).

    Each check runs on its own.  When it raises, or a value it reads
    raised, it fails with the exception as its detail (``ExcType:
    message``), and the other checks still run.  The shared values (the
    centralizer report, the triple, the K-membership result) are computed
    at most once.
    """
    spec, datum = a.family_spec, rec.datum
    results: List[Tuple[str, bool, str]] = []

    def check(name: str, run: Callable[[], Tuple[bool, str]]) -> None:
        try:
            ok, detail = run()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, ok, detail))

    report = _once(lambda: centralizer_report(a, datum))
    triple = _once(lambda: build_triple(a, datum))

    def centralizer_dim():
        # The two independent routes: the direct triple solve and the closed form.
        rep = report()
        solved = rep.dim_z_triple if rec.is_zero_orbit else centralizer_dim_triple(triple(), a)
        expected_x = rep.dim_g - expected_orbit_dim(a, datum)
        graded, expected = rep.dim_z_triple, rep.expected_reductive
        disagreements = []
        if not solved == graded == expected:
            disagreements.append(f"solved {solved}, graded {graded}, expected {expected}")
        if rep.dim_z_X != expected_x:
            disagreements.append(f"z(X) graded {rep.dim_z_X}, expected {expected_x}")
        if spec.ring is COMPLEX and not rec.is_zero_orbit and 2 * rep.compact.dim_K != solved:
            # A complex z(triple) is the complexification of K's Lie algebra.
            disagreements.append(f"dim K: 2 x {rep.compact.dim_K} != dim z(triple) {solved}")
        return not disagreements, "; ".join(disagreements)
    check("centralizer-dim", centralizer_dim)

    if spec.signed:
        def block_accounting():
            totals = signed_block_totals(a, datum)
            # A row sends one level to the plus half per +1 box and one to the
            # minus half per -1 box, so the closed form is the box counts.
            relation = datum.sgn_counts()
            return totals == relation == (a.p, a.q), f"halves {totals}, closed form {relation}"
        check("block-accounting", block_accounting)

    if rec.is_zero_orbit:
        if spec.has_descriptor:
            def zero_orbit_quotient():
                h = report().compact
                return h.dim_quotient == 0, f"dim_quotient={h.dim_quotient}"
            check("zero-orbit-quotient", zero_orbit_quotient)
        return results

    @_once
    def checked():
        """The triple the identities are checked on, with the fault if armed."""
        t = triple()
        return t._replace(Y=t.Y.scale_left(2)) if inject_fault else t

    def bracket(left: str, right: str, k: int, result: str) -> Tuple[bool, str]:
        """[left, right] = k result, for members of the checked triple."""
        t = checked()
        u, v, w = getattr(t, left), getattr(t, right), getattr(t, result)
        return compare_products([(1, u, v), (-1, v, u)], [(k, w, None)])

    check("[H,X]=2X", lambda: bracket("H", "X", 2, "X"))
    check("[H,Y]=-2Y", lambda: bracket("H", "Y", -2, "Y"))
    check("[X,Y]=H", lambda: bracket("X", "Y", 1, "H"))

    def jordan():
        found = jordan_type(checked().X)
        return found == datum.partition, f"found {found}, expected {datum.partition}"
    check("jordan-type", jordan)

    if spec.form is not None:
        def gram_symmetry():
            t = checked()
            return compare(sigma_transpose(t.gram, t.sigma),
                           t.gram if t.epsilon == 1 else -t.gram)
        check("gram-symmetry", gram_symmetry)

        def gram_invariance():
            # Each of X, H, Y must satisfy sigma(m)^T S = -S m.
            t = checked()
            for name, m in (("X", t.X), ("H", t.H), ("Y", t.Y)):
                mt = sigma_transpose(m, t.sigma)
                ok, detail = compare_products([(1, mt, t.gram)], [(-1, t.gram, m)])
                if not ok:
                    return False, f"{name}: {detail}"
            return True, ""
        check("gram-invariance", gram_invariance)
        if spec.signed:
            def gram_signature():
                sig = congruence_signature(checked().gram)
                return sig == (a.p, a.q), f"signature {sig}"
            check("gram-signature", gram_signature)

    if spec.has_adapted_basis:
        def adapted():
            t = checked()
            t_matrix = adapted_basis(a, datum).matrix
            target = standard_adapted_gram(a, datum)
            ts = sigma_transpose(t_matrix, t.sigma) @ t.gram
            ok, detail = compare_products([(1, ts, t_matrix)], [(1, target, None)])
            if not ok:
                return False, detail
            # T is unitary, so verify_K_membership may invert it by T*.
            ok, detail = compare_products([(1, conj_transpose(t_matrix), t_matrix)],
                                          [(1, ExactMatrix.identity(t_matrix.ncols), None)])
            return ok, detail and f"T*T {detail}"
        check("adapted-basis", adapted)

    if spec.has_descriptor:
        # One seeded Cayley point g1 per orbit, checked and embedded once.
        rng = random.Random(f"{seed}:{a}:{index}")
        e1 = _once(lambda: sample_k_element(a, datum, rng))
        member = _once(lambda: verify_K_membership(a, datum, e1(), checked()))
        check("embedding-homomorphism",
              lambda: verify_K_homomorphism(a, datum, e1(), member()))
        check("K-membership", lambda: (member().ok, "; ".join(member().failures)))
    return results


def _cmd_verify(args) -> int:
    specs = _verify_specs(args)
    fault_armed = args.inject_fault
    algebra_reports = []
    all_ok = True
    for a in specs:
        records = enumerate_orbits(a)
        by_check: Dict[str, List[Tuple[bool, str]]] = {}
        for idx, rec in enumerate(records):
            inject = fault_armed and not rec.is_zero_orbit
            fault_armed = fault_armed and not inject
            for name, ok, detail in _verify_orbit(a, rec, args.seed, idx, inject):
                if not ok:
                    detail = f"{rec.datum}: {detail}" if detail else str(rec.datum)
                by_check.setdefault(name, []).append((ok, detail))
        checks = []
        for name in [name for name in _CHECK_ORDER if name in by_check]:
            outcomes = by_check[name]
            failed = [d for ok, d in outcomes if not ok]
            all_ok = all_ok and not failed
            checks.append({
                "name": name,
                "status": "FAILED" if failed else "PASSED",
                "orbits": len(outcomes),
                "failures": len(failed),
                "detail": failed[0] if failed else "",
            })
        algebra_reports.append({
            "algebra": a.family,
            "params": a.params_json(),
            "orbit_records": len(records),
            "checks": checks,
        })
    if fault_armed:
        raise UsageError(f"fault target: --inject-fault corrupts the first nonzero orbit, "
                         f"and the run ({', '.join(map(str, specs))}) has none")
    document = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "result": "PASS" if all_ok else "FAIL",
        "algebras": algebra_reports,
    }
    if args.format == "json":
        print(_json_text(document))
    else:
        for rep in algebra_reports:
            params = ",".join(f"{k}={v}" for k, v in rep["params"].items())
            print(f"verify {rep['algebra']}({params}): "
                  f"{rep['orbit_records']} datum(s)")
            for chk in rep["checks"]:
                line = f"  {chk['name']} {chk['status']} ({chk['orbits']} orbit(s))"
                if chk["failures"]:
                    line += f" [{chk['failures']} failed"
                    if chk["detail"]:
                        line += f": {chk['detail']}"
                    line += "]"
                print(line)
        print(f"verify: {document['result']}")
    return 0 if all_ok else 1


_COMMANDS = {"list": _cmd_list, "describe": _cmd_describe, "verify": _cmd_verify}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser, command_parsers = _build_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command_parser = command_parsers.get(argv[0]) if argv else None
    if command_parser is None:
        args = parser.parse_args(argv)
    else:
        # The program-level pass would only hand argv[1:] to this parser.
        args, extras = command_parser.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
