"""Command-line contract: exit codes, document shapes, goldens, determinism."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from nilorb.catalog import AlgebraSpec, enumerate_orbits
from nilorb.cli import main
from nilorb.diagrams import SignedDiagram

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- exit codes --------------------------------------------------------------

def test_list_exits_zero(capsys):
    code, out, _ = run(capsys, "list", "--algebra", "sl_r", "--n", "3")
    assert code == 0
    assert "orbit catalog" in out


def test_describe_valid_exits_zero(capsys):
    code, out, _ = run(capsys, "describe", "--algebra", "sp_c", "--n", "2",
                       "--datum", "2,2")
    assert code == 0
    assert "orbit dimension" in out


def test_describe_invalid_datum_exits_two(capsys):
    code, out, err = run(capsys, "describe", "--algebra", "so_c", "--n", "6",
                         "--datum", "4,2")
    assert code == 2
    assert "even multiplicity" in err


def test_describe_signature_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "describe", "--algebra", "so_pq", "--p", "2",
                       "--q", "1", "--datum", "3", "--signs", "3:1")
    assert code == 2
    assert "sign counts" in err


def test_missing_size_flag_exits_two(capsys):
    code, _, err = run(capsys, "list", "--algebra", "sl_r")
    assert code == 2
    assert "--n" in err


def test_wrong_size_flags_exit_two(capsys):
    code, _, err = run(capsys, "list", "--algebra", "so_pq", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "list", "--algebra", "sl_c", "--p", "1", "--q", "1")
    assert code == 2


def test_unknown_algebra_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["list", "--algebra", "gl_r", "--n", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["list", "--algebra", "sl_r", "--n", "3", "--seed", "0"],
    ["list", "--algebra", "sl_r", "--n", "3", "--max-verify-n", "3"],
    ["describe", "--algebra", "sl_r", "--n", "3", "--datum", "3", "--seed", "0"],
    ["describe", "--algebra", "sl_r", "--n", "3", "--datum", "3", "--max-verify-n", "3"],
], ids=" ".join)
def test_only_verify_takes_the_seed_and_the_sweep_cap(capsys, argv):
    """``--seed`` and ``--max-verify-n`` steer only ``verify``, so ``list``
    and ``describe`` refuse them as unknown options."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_verify_pass_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl_c", "--n", "3")
    assert code == 0
    assert "verify: PASS" in out
    assert "FAILED" not in out


def test_verify_fault_injection_fails_named_identity(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sl_r", "--n", "3",
                       "--inject-fault")
    assert code == 1
    assert "[X,Y]=H FAILED" in out
    # The fault doubles Y of the first nonzero orbit, [2,1], so [X,Y] = 2H;
    # H is 1 at entry (0,0).
    assert "[2,1]: entry (0,0) is 2, expected 1]" in out
    # The fault scales Y, so the eigenvalue identities still pass.
    assert "[H,Y]=-2Y PASSED" in out
    assert "verify: FAIL" in out


@pytest.mark.parametrize("params, algebra", [
    (("sl_c", "--n", "1"), "sl_c(n=1)"),
    (("sl_r", "--n", "1"), "sl_r(n=1)"),
    (("so_pq", "--p", "1", "--q", "1"), "so_pq(1,1)"),
], ids=("sl_c", "sl_r", "so_pq"))
def test_verify_refuses_a_fault_with_no_nonzero_orbit_to_corrupt(capsys, params, algebra):
    """The fault corrupts the first nonzero orbit's triple; a run whose
    only orbit is the zero orbit would pass with nothing corrupted, so it
    exits 2, names the rule and prints no table."""
    assert run(capsys, "verify", "--algebra", *params)[0] == 0
    code, out, err = run(capsys, "verify", "--algebra", *params, "--inject-fault")
    assert (code, out) == (2, "")
    assert err == ("error: fault target: --inject-fault corrupts the first nonzero "
                   f"orbit, and the run ({algebra}) has none\n")


@pytest.mark.parametrize("params", [
    ("sl_r", "--n", "3"), ("sl_c", "--n", "3"), ("sl_h", "--n", "2"), ("so_c", "--n", "5"),
    ("so_pq", "--p", "2", "--q", "2"), ("sp_c", "--n", "2"), ("sp_pq", "--p", "2", "--q", "1"),
], ids=lambda params: params[0])
def test_verify_table_bytes_do_not_depend_on_the_seed(capsys, params):
    """The seed picks the K points, and a PASS table names none of them, so
    its bytes are the same for every seed; perfbench's reference digests
    of verify tables leave ``--seed`` out and rely on this."""
    outcomes = {run(capsys, "verify", "--algebra", *params, "--format", "table",
                    "--seed", seed) for seed in ("0", "1", "7")}
    assert len(outcomes) == 1
    code, out, err = outcomes.pop()
    assert (code, err) == (0, "") and out.endswith("verify: PASS\n")


# Matrix products one PASS run builds, at most: the identities and the K
# checks are checked row by row on the stored ints, not by building both
# sides (223 products before).
VERIFY_PRODUCTS = {"sl_c": 13, "so_pq": 28, "sp_pq": 16}
# The [X,Y]=H line of the PASS run and of the --inject-fault run.
VERIFY_FAULT_LINES = {
    "sl_c": ("  [X,Y]=H PASSED (4 orbit(s))",
             "  [X,Y]=H FAILED (4 orbit(s)) [1 failed: [2,1,1]: entry (0,0) is 2, expected 1]"),
    "so_pq": ("  [X,Y]=H PASSED (3 orbit(s))",
              "  [X,Y]=H FAILED (3 orbit(s)) "
              "[1 failed: [2,2](2:2): entry (0,0) is 2, expected 1]"),
    "sp_pq": ("  [X,Y]=H PASSED (2 orbit(s))",
              "  [X,Y]=H FAILED (2 orbit(s)) "
              "[1 failed: [2,1](2:1,1:1): entry (0,0) is 2, expected 1]"),
}


@pytest.mark.parametrize("argv", [
    ("--algebra", "sl_c", "--n", "4"),
    ("--algebra", "so_pq", "--p", "2", "--q", "2"),
    ("--algebra", "sp_pq", "--p", "2", "--q", "1"),
], ids=("sl_c", "so_pq", "sp_pq"))
def test_verify_builds_few_products_and_keeps_its_fault_lines(capsys, monkeypatch, argv):
    """A PASS run builds at most a pinned number of ``ExactMatrix``
    products; with ``--inject-fault`` the one failed identity line is the
    one it always was, and every other line is the PASS run's."""
    from nilorb.matrices import ExactMatrix

    products = [0]
    matmul = ExactMatrix.__matmul__

    def counting(a, b):
        products[0] += 1
        return matmul(a, b)

    monkeypatch.setattr(ExactMatrix, "__matmul__", counting)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and out.endswith("verify: PASS\n")
    assert products[0] <= VERIFY_PRODUCTS[argv[1]]
    code, faulty, _ = run(capsys, "verify", *argv, "--inject-fault")
    assert code == 1
    changed = [(a, b) for a, b in zip(out.splitlines(), faulty.splitlines()) if a != b]
    assert len(out.splitlines()) == len(faulty.splitlines())
    assert changed == [VERIFY_FAULT_LINES[argv[1]], ("verify: PASS", "verify: FAIL")]


@pytest.mark.parametrize("grade, detail", [
    (2, "[2,1]: solved 1, graded 0, expected 1]"),
    (1, "[2,1]: z(X) graded 5, expected 4]"),
], ids=("z-triple", "z-X"))
def test_verify_names_a_graded_route_that_disagrees(capsys, monkeypatch,
                                                     grade, detail):
    """Adding one to dim g_2 breaks the triple route and adding one to
    dim g_1 the z(X) route; verify fails and names the route."""
    import nilorb.centralizers

    graded = nilorb.centralizers._grade_nullities

    def off_by_one(*args, **kwargs):
        dims = list(graded(*args, **kwargs))
        dims[grade] += 1
        return tuple(dims)

    monkeypatch.setattr(nilorb.centralizers, "_grade_nullities", off_by_one)
    code, out, _ = run(capsys, "verify", "--algebra", "sl_r", "--n", "3")
    assert code == 1
    assert "centralizer-dim FAILED (3 orbit(s)) [2 failed: " + detail in out
    assert "verify: FAIL" in out


def test_verify_reads_the_zero_orbit_quotient_from_the_report(capsys, monkeypatch):
    """A zero orbit's quotient is the one the centralizer report carries."""
    import nilorb.cli

    report = nilorb.cli.centralizer_report

    def raised_quotient(a, datum):
        r = report(a, datum)
        if r.dim_orbit:
            return r
        return r._replace(compact=r.compact._replace(dim_quotient=1))

    monkeypatch.setattr(nilorb.cli, "centralizer_report", raised_quotient)
    code, out, _ = run(capsys, "verify", "--algebra", "sl_r", "--n", "3")
    assert code == 1
    assert ("zero-orbit-quotient FAILED (1 orbit(s)) "
            "[1 failed: [1,1,1]: dim_quotient=1]") in out
    assert "centralizer-dim PASSED" in out


def test_parser_is_built_once_and_reused_after_errors(capsys):
    """A bad argument, twice, then a good command, all in one process: the
    cached parser gives the same error bytes and exit codes every time."""
    import nilorb.cli

    assert nilorb.cli._build_parsers()[0] is nilorb.cli._build_parsers()[0]
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--algebra", "gl_r", "--n", "3"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr())
    assert errors[0] == errors[1]
    assert errors[0].out == ""
    assert errors[0].err.startswith("usage: nilorb list ")
    assert "argument --algebra: invalid choice: 'gl_r'" in errors[0].err
    code, out, err = run(capsys, "list", "--algebra", "sl_r", "--n", "3")
    assert (code, err) == (0, "")
    assert out.startswith("orbit catalog for sl_r(n=3)\n")
    assert run(capsys, "list", "--algebra", "sl_r", "--n", "3") == (code, out, err)


def _outcome(capsys, route, argv):
    """(exit code, stdout, stderr) of ``route(argv)``, a usage exit included."""
    try:
        code = route(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _program_level_route(argv):
    """``main`` as it was when the program-level parser parsed every command
    line and handed the rest to the command's parser."""
    import nilorb.cli as cli

    args = cli._build_parsers()[0].parse_args(argv)
    command = {"list": cli._cmd_list, "describe": cli._cmd_describe,
               "verify": cli._cmd_verify}[args.command]
    try:
        return command(args)
    except cli.UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_LIST = ["list", "--algebra", "sl_r"]
PARITY_ARGV = [
    _LIST + ["--n", "3"],
    ["describe", "--algebra", "so_pq", "--p", "2", "--q", "1",
     "--datum", "3", "--signs", "3:0"],
    ["verify", "--algebra", "sl_r", "--n", "2", "--format", "json"],
    ["list", "--help"],
    ["describe", "--help"],
    ["verify", "--help"],
    ["-h"],
    [],
    ["desc", "--algebra", "sl_r", "--n", "3", "--datum", "2,1"],
    ["list", "--alg", "sl_r", "--n", "3"],
    _LIST + ["--n=3"],
    _LIST + ["--n", "3", "--bogus"],
    _LIST + ["--n", "3", "stray"],
    _LIST + ["--n", "3", "--", "x"],
    _LIST + ["--n", "3", "--n", "4"],
    _LIST + ["--n"],
    _LIST + ["--n", "x"],
    _LIST + ["--n", "-1"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=lambda argv: " ".join(argv) or "<none>")
def test_main_matches_the_program_level_route(capsys, argv):
    """Handing a command line straight to its command's parser changes no
    exit code, stdout or stderr byte, usage errors and help included."""
    assert _outcome(capsys, main, argv) == _outcome(capsys, _program_level_route, argv)


def test_a_command_line_skips_the_program_level_parser(capsys, monkeypatch):
    """A command line naming a command never reaches the program-level
    parser; ``-h`` still does."""
    import nilorb.cli

    commands = PARITY_ARGV[:3]  # one list, one describe, one verify
    expected = [_outcome(capsys, main, argv) for argv in commands]
    assert [code for code, _, _ in expected] == [0, 0, 0]

    class ProgramLevelParse(Exception):
        pass

    def refuse(*args, **kwargs):
        raise ProgramLevelParse
    monkeypatch.setattr(nilorb.cli._build_parsers()[0], "parse_known_args", refuse)
    assert [_outcome(capsys, main, argv) for argv in commands] == expected
    with pytest.raises(ProgramLevelParse):
        main(["-h"])


# --- failure details of the silent checks -------------------------------------

def test_verify_explains_a_wrong_jordan_type(capsys, monkeypatch):
    import nilorb.cli
    from nilorb.partitions import Partition

    monkeypatch.setattr(nilorb.cli, "jordan_type", lambda x: Partition([x.nrows]))
    code, out, _ = run(capsys, "verify", "--algebra", "sl_r", "--n", "3")
    assert code == 1
    assert ("jordan-type FAILED (2 orbit(s)) "
            "[1 failed: [2,1]: found [3], expected [2,1]]") in out


def test_verify_explains_a_gram_invariance_failure(capsys, monkeypatch):
    """Y + I is not in the algebra: sigma(Y + I)^T S = -S (Y + I) fails at Y."""
    import nilorb.cli
    from nilorb.matrices import ExactMatrix

    build = nilorb.cli.build_triple

    def shifted_y(a, datum):
        t = build(a, datum)
        return t._replace(Y=t.Y + ExactMatrix.identity(t.Y.nrows))

    monkeypatch.setattr(nilorb.cli, "build_triple", shifted_y)
    code, out, _ = run(capsys, "verify", "--algebra", "so_pq", "--p", "2", "--q", "1")
    assert code == 1
    assert ("gram-invariance FAILED (1 orbit(s)) "
            "[1 failed: [3](3:0): Y: entry (0,2) is -1, expected 1]") in out
    assert "gram-symmetry PASSED" in out


@pytest.mark.parametrize("fault, argv, detail", [
    ("product", ("--algebra", "sl_c", "--n", "4"),
     "[4 failed: [2,1,1]: product: entry (2,2) is -1461/1885+248/1885*i, "
     "expected 171/1885+1472/1885*i]"),
    ("identity", ("--algebra", "sl_c", "--n", "3"),
     "[2 failed: [2,1]: identity: entry (0,0) is 0, expected 1]"),
], ids=("product", "identity"))
def test_verify_explains_an_embedding_that_is_not_a_homomorphism(
        capsys, monkeypatch, fault, argv, detail):
    """Embedding by the conjugate transpose reverses products; embedding
    everything as zero keeps products but loses the identity.  The fault
    wraps the block assembly of every K point but the sampled g1, whose
    embedding K-membership checks, so the product check compares emb(g1)
    emb(g2)* with emb(g1 g2)*: it fails on all four orbits, the
    commutative ones too.  Each detail names the first bad entry of the
    product or the identity."""
    import nilorb.cli
    import nilorb.homotopy
    from nilorb.matrices import ExactMatrix, conj_transpose

    sample, assemble = nilorb.cli.sample_k_element, nilorb.homotopy._assemble_K
    samples = []

    def sampled(*args):
        samples.append(sample(*args))
        return samples[-1]

    def faulty(a, datum, e):
        emb = assemble(a, datum, e)
        if any(e is g1 for g1 in samples):
            return emb
        if fault == "product":
            return conj_transpose(emb)
        return ExactMatrix.zeros(emb.nrows, emb.ncols)

    monkeypatch.setattr(nilorb.cli, "sample_k_element", sampled)
    monkeypatch.setattr(nilorb.homotopy, "_assemble_K", faulty)
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert "embedding-homomorphism FAILED" in out
    assert detail in out


@pytest.mark.parametrize("argv, failed", [
    (("--algebra", "sl_r", "--n", "6"), "(10 orbit(s)) [6 failed: [2,1,1,1,1]: "
     "product: entry (2,3) is 24/115, expected -24/115]"),
    (("--algebra", "sl_c", "--n", "5"), "(6 orbit(s)) [3 failed: [2,1,1,1]: "
     "product: entry (2,3) is 74196/1698341-39840/1698341*i, "
     "expected 381948/8491705+177264/8491705*i]"),
    (("--algebra", "sl_h", "--n", "4"), "(4 orbit(s)) [2 failed: [2,1,1]: "
     "product: entry (2,3) is 129/1369-840/1369*i+27/1369*j-63/1369*k, "
     "expected -27/1369+63/1369*i+129/1369*j-840/1369*k]"),
], ids=("sl_r", "sl_c", "sl_h"))
def test_only_the_homomorphism_check_catches_an_anti_homomorphism(
        capsys, monkeypatch, argv, failed):
    """Embedding each factor as its transpose reverses products but still
    commutes with the triple and keeps det, so K-membership passes.  The
    product check with the fixed component representative as g2 catches it
    wherever a factor of size 2 or more does not commute with g1."""
    import nilorb.homotopy

    kron = nilorb.homotopy.kron
    monkeypatch.setattr(nilorb.homotopy, "kron",
                        lambda ident, g: kron(ident, g.transpose()))
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1
    assert f"embedding-homomorphism FAILED {failed}" in out
    assert "K-membership PASSED" in out


def test_verify_reads_every_product_identity_from_the_kernel_alone(capsys, monkeypatch):
    """With ``products_agree`` answering "differ" on equal sides, every line
    that checks a product identity fails, although its built sides agree:
    no second route overturns the kernel.  The plain equalities and the
    other checks still pass, and no failed line ends in an empty detail."""
    from nilorb import matrices

    monkeypatch.setattr(matrices, "products_agree", lambda lhs, rhs: False)
    code, out, _ = run(capsys, "verify", "--algebra", "so_pq", "--p", "2", "--q", "1")
    assert code == 1
    failed = ("[H,X]=2X", "[H,Y]=-2Y", "[X,Y]=H", "gram-invariance", "adapted-basis",
              "embedding-homomorphism", "K-membership")
    lines = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:-1]}
    assert sorted(name for name, verdict in lines.items()
                  if verdict == "FAILED") == sorted(failed)
    assert len(lines) == 13 and "verify: FAIL" in out
    for line in out.splitlines():
        if "FAILED" in line:
            assert not line.endswith((": ]", ": ;")) and ": ;" not in line
            assert line.endswith("kernel and built sides disagree]")


def test_verify_samples_and_checks_each_k_point_once(capsys, monkeypatch):
    """Per nonzero orbit of sl_c(4), verify draws one Cayley sample g1 and
    checks its factor relations once, in K-membership, whose embedding the
    product check reuses.  embed_K runs on g2 alone, which checks g2's
    relations once; g1 g2 and the identity are assembled unchecked."""
    import nilorb.cli
    import nilorb.homotopy

    a = AlgebraSpec("sl_c", n=4)
    nonzero = sum(not rec.is_zero_orbit for rec in enumerate_orbits(a))
    sample = nilorb.cli.sample_k_element
    defect = nilorb.homotopy.k_element_defect
    embed = nilorb.homotopy.embed_K
    samples, checked, embedded = [], [], []

    def counting_sample(*args):
        samples.append(sample(*args))
        return samples[-1]

    def counting_defect(alg, datum, e):
        checked.append(e)
        return defect(alg, datum, e)

    def counting_embed(*args):
        embedded.append(args)
        return embed(*args)
    monkeypatch.setattr(nilorb.cli, "sample_k_element", counting_sample)
    monkeypatch.setattr(nilorb.homotopy, "k_element_defect", counting_defect)
    monkeypatch.setattr(nilorb.homotopy, "embed_K", counting_embed)
    code, _, _ = run(capsys, "verify", "--algebra", "sl_c", "--n", "4")
    assert code == 0
    assert len(samples) == nonzero == 4
    assert [sum(e is g1 for e in checked) for g1 in samples] == [1] * nonzero
    assert len(embedded) == nonzero
    assert len(checked) == 2 * nonzero


#: The K-point functions that compose, check or assemble K points; only
#: ``homotopy`` calls them, so ``cli`` imports none of them.
K_COMPOSITION = ("component_representative", "embed_K", "k_element_defect", "_assemble_K")


def k_composition_references(source: str) -> list:
    """``(line, name)`` of every :data:`K_COMPOSITION` name the source
    imports or reads as a module attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in K_COMPOSITION]
        elif isinstance(node, ast.Attribute) and node.attr in K_COMPOSITION:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_scan_flags_k_point_composition_outside_homotopy():
    flagged = (
        "from .homotopy import (component_representative, embed_K,\n"
        "                       sample_k_element)\n"
        "from nilorb.homotopy import _assemble_K as assemble\n"
        "def line(a, datum, e):\n"
        "    return homotopy.k_element_defect(a, datum, e)\n"
    )
    assert k_composition_references(flagged) == [
        (1, "component_representative"), (1, "embed_K"), (3, "_assemble_K"),
        (5, "k_element_defect")]
    accepted = (
        "from .homotopy import sample_k_element, verify_K_homomorphism\n"
        "def line(a, datum, e, member):\n"
        "    embed_K = verify_K_homomorphism(a, datum, e, member)\n"
        "    return embed_K\n"
    )
    assert k_composition_references(accepted) == []


def test_cli_leaves_k_point_composition_to_homotopy():
    source = (pathlib.Path(__file__).resolve().parent.parent
              / "src" / "nilorb" / "cli.py").read_text()
    assert k_composition_references(source) == []


def test_verify_reports_a_sampled_factor_defect_without_raising(capsys, monkeypatch):
    """A K sample whose first factor is scaled by 2 is no group element:
    the embedding check reads the defect instead of ending the run, and
    K-membership reports the same one."""
    import nilorb.cli
    from nilorb.scalars import Scalar

    sample = nilorb.cli.sample_k_element

    def scaled(a, datum, rng):
        e = sample(a, datum, rng)
        return (e[0].scale_left(Scalar.rational(2)),) + e[1:]

    monkeypatch.setattr(nilorb.cli, "sample_k_element", scaled)
    code, out, _ = run(capsys, "verify", "--algebra", "sl_c", "--n", "3")
    assert code == 1
    assert ("embedding-homomorphism FAILED (2 orbit(s)) "
            "[2 failed: [2,1]: factor relation: U(1) factor is not unitary]") in out
    assert ("K-membership FAILED (2 orbit(s)) "
            "[2 failed: [2,1]: factor relation: U(1) factor is not unitary]") in out
    assert out.endswith("verify: FAIL\n")


def test_verify_requires_a_unitary_adapted_basis(capsys, monkeypatch):
    """T Q with Q complex orthogonal but not unitary still carries the Gram
    matrix to the identity, so only T*T = I catches it; K-membership then
    reports unitary[T] instead of inverting T.  The basis is replaced in
    both modules that read it: the CLI's adapted-basis check and the K
    functions."""
    import nilorb.cli
    import nilorb.homotopy
    from nilorb.matrices import ExactMatrix
    from nilorb.scalars import Scalar
    from nilorb.triples import adapted_basis

    a, b = Scalar.rational(Fraction(5, 4)), Scalar.complex_value(0, Fraction(3, 4))
    q = ExactMatrix.from_entries(3, 3, {(0, 0): a, (0, 1): b, (1, 0): -b,
                                        (1, 1): a, (2, 2): 1})

    def non_unitary(alg, datum):
        adapted = adapted_basis(alg, datum)
        return adapted._replace(matrix=adapted.matrix @ q)

    for module in (nilorb.cli, nilorb.homotopy):
        monkeypatch.setattr(module, "adapted_basis", non_unitary)
    code, out, _ = run(capsys, "verify", "--algebra", "so_c", "--n", "3")
    assert code == 1
    assert ("adapted-basis FAILED (1 orbit(s)) "
            "[1 failed: [3]: T*T entry (0,0) is 17/8, expected 1]") in out
    assert "K-membership FAILED (1 orbit(s)) [1 failed: [3]: unitary[T]]" in out


def test_verify_sweep_without_size(capsys):
    code, out, _ = run(capsys, "verify", "--algebra", "sp_c",
                       "--max-verify-n", "4")
    assert code == 0
    assert "sp_c(n=1)" in out and "sp_c(n=2)" in out
    assert "sp_c(n=3)" not in out  # 2n boxes would exceed the cap


@pytest.mark.parametrize("algebra,cap,smallest", [
    ("so_c", "2", "so_c(n=3), needs --max-verify-n 3"),
    ("sp_c", "1", "sp_c(n=1), needs --max-verify-n 2"),
    ("sl_r", "-5", "sl_r(n=1), needs --max-verify-n 1"),
])
def test_verify_empty_sweep_exits_two(capsys, algebra, cap, smallest):
    code, out, err = run(capsys, "verify", "--algebra", algebra,
                         "--max-verify-n", cap)
    assert code == 2
    assert "PASS" not in out
    assert f"the smallest, {smallest}" in err


def _no_orbit_work(monkeypatch):
    """Make every route into orbit enumeration or triple building raise."""
    import nilorb.centralizers
    import nilorb.cli

    def forbidden(*args, **kwargs):
        raise AssertionError("orbit work started before the work limit")
    for module, name in ((nilorb.cli, "build_triple"),
                         (nilorb.centralizers, "gram_matrix"),
                         (nilorb.cli, "enumerate_orbits")):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("argv,estimate,at", [
    (("list", "--algebra", "sl_r", "--n", "64"), "7,133,716,480", "sl_r(n=64)"),
    (("verify", "--algebra", "sl_r", "--max-verify-n", "1000"), "1,140,486",
     "sl_r(n=18)"),
    (("list", "--algebra", "sl_r", "--n", "25"), "1,223,750", "sl_r(n=25)"),
    (("list", "--algebra", "sl_r", "--n", "1000000000"),
     "1,000,000,000,000,000,000", "sl_r(n=1000000000)"),
    (("verify", "--algebra", "sp_pq", "--max-verify-n", "1000000000"), "1,008,720",
     "sp_pq(7,3)"),
    (("verify", "--algebra", "sl_c", "--n", "21"), "1,047,816", "sl_c(n=21)"),
    (("verify", "--algebra", "so_c", "--n", "26"), "1,016,028", "so_c(n=26)"),
])
def test_oversized_runs_are_refused_before_any_orbit_work(
        capsys, monkeypatch, argv, estimate, at):
    _no_orbit_work(monkeypatch)
    measure = "orbit records x size^2"
    if argv[0] == "verify":
        measure += " x 3 (the verify weight)"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: work limit: {measure}, summed over the "
                   f"run's algebras, reaches {estimate} at {at}; the limit is "
                   f"1,000,000\n")


@pytest.mark.parametrize("argv", [
    # The largest list the limit admits: 1,575 x 24^2 = 907,200.
    ("list", "--algebra", "sl_r", "--n", "24"),
    # The largest commands of perfbench's catalog and verify workloads.
    ("list", "--algebra", "so_c", "--n", "14"),
    ("list", "--algebra", "sp_pq", "--p", "4", "--q", "4"),
    ("list", "--algebra", "sp_c", "--n", "6"),
    ("verify", "--algebra", "sp_pq", "--max-verify-n", "5"),
    ("verify", "--algebra", "so_pq", "--max-verify-n", "6"),
    ("verify", "--algebra", "sl_c", "--max-verify-n", "6"),
    # The largest sl_c verify the weight admits: 3 x 627 x 20^2 = 752,400.
    ("verify", "--algebra", "sl_c", "--n", "20"),
    # The largest so/sp verifies the parity-rule bound admits, each about
    # half a minute or less: so_c 25 (3 x 420 x 25^2 = 787,500), sp_c 12,
    # so_pq(8,8) and sp_pq(7,8).
    ("verify", "--algebra", "so_c", "--n", "25"),
    ("verify", "--algebra", "sp_c", "--n", "12"),
    ("verify", "--algebra", "so_pq", "--p", "8", "--q", "8"),
    ("verify", "--algebra", "sp_pq", "--p", "7", "--q", "8"),
], ids=" ".join)
def test_work_limit_admits_runs_below_it(monkeypatch, argv):
    _no_orbit_work(monkeypatch)
    with pytest.raises(AssertionError, match="before the work limit"):
        main(list(argv))


@pytest.mark.parametrize("argv,estimate,at", [
    (("describe", "--algebra", "sl_r", "--n", "1001", "--datum", "1001"), "1,002,001",
     "sl_r(n=1001)"),
    (("describe", "--algebra", "sp_c", "--n", "501", "--datum", "1002"), "1,004,004",
     "sp_c(n=501)"),
])
def test_oversized_describe_is_refused_before_anything_is_built(
        capsys, monkeypatch, argv, estimate, at):
    import nilorb.cli

    def forbidden(*args):
        raise AssertionError("datum parsed before the work limit")

    _no_orbit_work(monkeypatch)
    monkeypatch.setattr(nilorb.cli, "_parse_datum", forbidden)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: work limit: one orbit record x size^2 reaches {estimate} "
                   f"at {at}; the limit is 1,000,000\n")


@pytest.mark.parametrize("argv", [
    ("describe", "--algebra", "sl_r", "--n", "1000", "--datum", "1000"),
    ("describe", "--algebra", "sp_c", "--n", "500", "--datum", "1000"),
], ids=" ".join)
def test_describe_limit_admits_size_1000(monkeypatch, argv):
    _no_orbit_work(monkeypatch)
    with pytest.raises(AssertionError, match="before the work limit"):
        main(list(argv))


@pytest.mark.parametrize("family,cap", [("sp_pq", 5), ("so_pq", 6), ("sl_c", 6)])
def test_verify_weight_leaves_the_benchmark_sweeps_twice_the_room(family, cap):
    """The weighted estimate of each benchmark verify sweep is at most half
    the limit; the largest, so_pq up to size 6, is 6,700 unweighted."""
    from nilorb.catalog import orbit_record_bound
    from nilorb.cli import MAX_WORK, VERIFY_WEIGHT, _build_parsers, _verify_specs

    args = _build_parsers()[0].parse_args(["verify", "--algebra", family,
                                           "--max-verify-n", str(cap)])
    units = sum(a.size ** 2 * orbit_record_bound(a) for a in _verify_specs(args))
    assert 2 * VERIFY_WEIGHT * units <= MAX_WORK
    if family == "so_pq":
        assert units == 6_700


def test_describe_sign_part_named_twice(capsys):
    """A repeated part in --signs is refused, not overwritten by its last entry."""
    code, out, err = run(capsys, "describe", "--algebra", "so_pq", "--p", "2",
                         "--q", "1", "--datum", "3", "--signs", "3:1,3:0")
    assert (code, out) == (2, "")
    assert err == "error: sign data names part 3 twice\n"


@pytest.mark.parametrize("datum", ["2,,1", ",2,1", "2,1,", " 2 , , 1 "])
def test_describe_refuses_an_empty_datum_part(capsys, datum):
    """An empty chunk is refused, not dropped into the datum [2,1]."""
    code, out, err = run(capsys, "describe", "--algebra", "sl_r", "--n", "3",
                         "--datum", datum)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse --datum {datum!r}: empty part\n"


def test_describe_refuses_an_empty_datum(capsys):
    code, out, err = run(capsys, "describe", "--algebra", "sl_r", "--n", "3",
                         "--datum", " ")
    assert (code, out) == (2, "")
    assert err == "error: cannot parse --datum ' ': empty partition\n"


@pytest.mark.parametrize("signs", ["3:0,,1:1", ",3:0,1:1", "3:0,1:1,", "3:0, ,1:1"])
def test_describe_refuses_an_empty_signs_entry(capsys, signs):
    code, out, err = run(capsys, "describe", "--algebra", "so_pq", "--p", "3",
                         "--q", "1", "--datum", "3,1", "--signs", signs)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse --signs {signs!r}: empty entry\n"


def test_describe_accepts_the_signs_without_empty_entries(capsys):
    code, _, err = run(capsys, "describe", "--algebra", "so_pq", "--p", "3",
                       "--q", "1", "--datum", "3,1", "--signs", "3:0, 1:1")
    assert (code, err) == (0, "")


def test_describe_stray_sign_part_named(capsys):
    code, _, err = run(capsys, "describe", "--algebra", "so_pq", "--p", "2",
                       "--q", "1", "--datum", "3", "--signs", "2:1")
    assert code == 2
    assert "part 2" in err
    assert "part 3" not in err


@pytest.mark.parametrize("signs", ["", " ", "3:1"])
def test_describe_refuses_any_given_signs_on_a_plain_family(capsys, signs):
    """A family without free signs refuses --signs whenever it is given,
    empty or blank too."""
    code, out, err = run(capsys, "describe", "--algebra", "sl_r", "--n", "3",
                         "--datum", "3", "--signs", signs)
    assert (code, out) == (2, "")
    assert err == "error: sl_r takes plain partitions; drop --signs\n"


@pytest.mark.parametrize("argv", [
    ("--algebra", "so_pq", "--p", "2", "--q", "2", "--datum", "2,2"),
    ("--algebra", "sp_pq", "--p", "1", "--q", "1", "--datum", "2"),
], ids=("so_pq", "sp_pq"))
def test_describe_reads_empty_signs_as_no_explicit_signs(capsys, argv):
    """A signed family reads --signs "" as the datum's default signs."""
    expected = run(capsys, "describe", *argv)
    assert expected[0] == 0
    assert run(capsys, "describe", *argv, "--signs", "") == expected


# --- warnings and content -----------------------------------------------------

def test_low_rank_warning_in_list(capsys):
    _, out, _ = run(capsys, "list", "--algebra", "so_c", "--n", "4")
    assert "small-rank" in out
    doc = json.loads(run(capsys, "list", "--algebra", "so_c", "--n", "4",
                         "--format", "json")[1])
    assert doc["low_rank_warning"] is True
    _, out5, _ = run(capsys, "list", "--algebra", "so_c", "--n", "5")
    assert "small-rank" not in out5


def test_zero_orbit_describe_mentions_point(capsys):
    _, out, _ = run(capsys, "describe", "--algebra", "sl_h", "--n", "3",
                    "--datum", "1,1,1")
    assert "K = M" in out
    assert "point" in out


def test_describe_prints_triple_and_gram(capsys):
    _, out, _ = run(capsys, "describe", "--algebra", "so_pq", "--p", "2",
                    "--q", "1", "--datum", "3", "--signs", "3:0")
    for label in ("X:", "H:", "Y:", "gram:", "adapted basis"):
        assert label in out


# --- JSON documents -----------------------------------------------------------

def test_schema_version_everywhere(capsys):
    for argv in (["list", "--algebra", "sl_r", "--n", "2"],
                 ["describe", "--algebra", "sl_r", "--n", "2", "--datum", "2"],
                 ["verify", "--algebra", "sl_r", "--n", "2"]):
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert json.loads(out)["schema"] == 1


def test_json_round_trip(capsys):
    """parse(serialize(x)) is the same document, byte for byte."""
    for argv in (["list", "--algebra", "so_pq", "--p", "2", "--q", "2"],
                 ["describe", "--algebra", "sp_pq", "--p", "1", "--q", "1",
                  "--datum", "2", "--signs", "2:1"],
                 ["verify", "--algebra", "sl_h", "--n", "2"]):
        _, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert json.dumps(doc, indent=2) + "\n" == out


@pytest.mark.parametrize("argv", [
    ("describe", "--algebra", "sl_r", "--n", "3", "--datum", "2,1"),
    ("describe", "--algebra", "sl_c", "--n", "3", "--datum", "1,1,1"),
    ("describe", "--algebra", "sl_h", "--n", "2", "--datum", "2"),
    ("describe", "--algebra", "so_c", "--n", "5", "--datum", "3,1,1"),
    ("describe", "--algebra", "so_pq", "--p", "2", "--q", "2", "--datum", "3,1",
     "--signs", "3:0,1:0"),
    ("describe", "--algebra", "sp_c", "--n", "2", "--datum", "2,2"),
    ("describe", "--algebra", "sp_pq", "--p", "2", "--q", "1", "--datum", "2,1",
     "--signs", "2:1,1:1"),
    ("describe", "--algebra", "so_star", "--n", "4", "--datum", "2,2",
     "--signs", "2:1"),
    ("list", "--algebra", "sp_c", "--n", "2"),
    ("verify", "--algebra", "so_pq", "--p", "2", "--q", "1"),
], ids=lambda argv: " ".join(argv[:3:2]))
def test_json_output_is_the_stdlib_encoding(capsys, argv):
    """Every JSON command prints exactly json.dumps(document, indent=2): one
    describe per family (sl_c's zero orbit, signed data for so_pq, sp_pq
    and so_star), one list and one verify."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def json_dumps_calls(source: str) -> list:
    """``(line, what)`` for every ``json.dump``/``json.dumps`` call and every
    import of ``dump`` or ``dumps`` from ``json``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found.extend((node.lineno, f"imports {alias.name}") for alias in node.names
                         if alias.name in ("dump", "dumps"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("dump", "dumps")
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"):
            found.append((node.lineno, f"json.{node.func.attr}()"))
    return sorted(found)


def test_scan_flags_json_dumps_and_accepts_the_cli_encoder():
    source = (
        "print(json.dumps(doc, indent=2))\n"
        "from json import dumps\n"
        "json.dump(doc, fh)\n"
        "from json.encoder import encode_basestring_ascii\n"
        "print(_json_text(doc))\n"
        "doc = json.loads(text)\n"
    )
    assert json_dumps_calls(source) == [(1, "json.dumps()"), (2, "imports dumps"),
                                        (3, "json.dump()")]


@pytest.mark.parametrize("path", sorted((pathlib.Path(__file__).resolve().parents[1]
                                         / "src" / "nilorb").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_cli_encoder_writes_json(path):
    """JSON output has one path, ``cli._json_text``; a second one cannot
    come back through the stdlib encoder."""
    assert json_dumps_calls(path.read_text()) == []


def test_json_text_leaves_no_garbage_for_the_cycle_collector(capsys, monkeypatch):
    """A ``describe`` document's text is freed by reference counting alone:
    with the cyclic collector off, one encoding leaves nothing for it."""
    import gc

    import nilorb.cli
    from nilorb.matrices import ExactMatrix

    docs = []
    json_text = nilorb.cli._json_text
    monkeypatch.setattr(nilorb.cli, "_json_text", lambda doc: docs.append(doc) or "")
    code, _, _ = run(capsys, "describe", "--algebra", "so_pq", "--p", "3", "--q", "3",
                     "--datum", "3,3", "--signs", "3:1", "--format", "json")
    assert code == 0 and len(docs) == 1
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = json_text(docs[0])
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert text == json.dumps(docs[0], indent=2, default=ExactMatrix.to_json)


def test_table_and_json_numeric_parity(capsys):
    """The table expands each record into one row per orbit in its fiber."""
    a = ["list", "--algebra", "so_pq", "--p", "3", "--q", "2"]
    _, table, _ = run(capsys, *a)
    _, raw, _ = run(capsys, *a, "--format", "json")
    doc = json.loads(raw)
    lines = [ln for ln in table.splitlines() if ln.startswith("[")]
    assert len(lines) == doc["total_orbit_count"]
    expanded = [rec for rec in doc["orbit_records"]
                for _ in range(rec["fiber_count"])]
    for line, rec in zip(lines, expanded):
        cells = line.split()
        assert cells[0] == rec["datum_rendered"]
        assert cells[1].endswith(f"/{rec['fiber_count']}")
        assert int(cells[2]) == rec["orbit_dim"]
    total_line = [ln for ln in table.splitlines() if "total orbits" in ln][0]
    assert str(doc["total_orbit_count"]) in total_line


def test_list_table_row_count_matches_orbit_total(capsys):
    _, out, _ = run(capsys, "list", "--algebra", "sl_r", "--n", "2")
    rows = [ln for ln in out.splitlines() if ln.startswith("[")]
    assert len(rows) == 3  # [1,1] once, [2] twice (its fiber splits)


def test_list_table_builds_no_json_documents(capsys, monkeypatch):
    """The table reads each record and its report, not their JSON documents."""
    from nilorb.centralizers import CentralizerReport
    from nilorb.homotopy import HomotopyType

    argv = ("list", "--algebra", "so_c", "--n", "8", "--format", "table")
    code, table, _ = run(capsys, *argv)
    assert code == 0

    def forbidden(self):
        raise AssertionError("the table built a JSON document")
    monkeypatch.setattr(CentralizerReport, "to_json", forbidden)
    monkeypatch.setattr(HomotopyType, "to_json", forbidden)
    assert run(capsys, *argv) == (0, table, "")


@pytest.mark.parametrize("family,params", [
    ("so_pq", {"p": 2, "q": 2}),
    ("sp_pq", {"p": 2, "q": 1}),
    ("so_c", {"n": 6}),
    ("sl_r", {"n": 4}),
])
def test_describe_record_matches_catalog(capsys, family, params):
    """describe builds its record from the datum; it must agree with list."""
    size_args = [arg for key, value in params.items()
                 for arg in (f"--{key}", str(value))]
    for rec in enumerate_orbits(AlgebraSpec(family, **params)):
        argv = ["describe", "--algebra", family, *size_args,
                "--datum", ",".join(map(str, rec.datum.partition.parts())),
                "--format", "json"]
        if isinstance(rec.datum, SignedDiagram):
            argv += ["--signs", ",".join(f"{d}:{p}" for d, p in rec.datum.p_pairs)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        expected = rec.to_json()
        assert doc["datum"] == expected["datum"]
        assert doc["fiber_count"] == expected["fiber_count"]
        assert doc["is_zero_orbit"] == expected["is_zero_orbit"]


def test_cli_import_leaves_out_thread_pool():
    """The command line runs serially; importing it pulls in no executor."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, nilorb.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "False"


def test_describe_document_content(capsys):
    _, raw, _ = run(capsys, "describe", "--algebra", "sl_h", "--n", "3",
                    "--datum", "2,1", "--format", "json")
    doc = json.loads(raw)
    assert doc["orbit_dim"] == 16
    assert doc["centralizer"]["match"] is True
    assert doc["homotopy_rendered"] == "Sp(3) / (Sp(1) × Sp(1))"
    assert doc["triple"] is not None
    assert doc["homotopy"]["factors"][0]["kind"] == "Sp"


# --- determinism and goldens ---------------------------------------------------

def test_verify_deterministic_across_runs(capsys):
    args = ("verify", "--algebra", "so_pq", "--p", "2", "--q", "1",
            "--seed", "7", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


GOLDEN_CASES = [
    ("list_so_pq_2_1.json",
     ["list", "--algebra", "so_pq", "--p", "2", "--q", "1",
      "--format", "json"]),
    ("describe_sl_h_3_21.json",
     ["describe", "--algebra", "sl_h", "--n", "3", "--datum", "2,1",
      "--format", "json"]),
    ("describe_sp_pq_2_1_21.json",
     ["describe", "--algebra", "sp_pq", "--p", "2", "--q", "1", "--datum", "2,1",
      "--signs", "2:1,1:1", "--format", "json"]),
    ("verify_sl_r_2_seed0.json",
     ["verify", "--algebra", "sl_r", "--n", "2", "--seed", "0",
      "--format", "json"]),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=lambda x: str(x)[:24])
def test_golden_documents(capsys, name, argv):
    """Byte-stable output under a fixed seed, frozen in tests/data."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    golden = (DATA / name).read_text()
    assert out == golden


# Every orbit of these algebras, in enumerate_orbits order, is described as
# json and then as a table: 142 commands.  The SHA-256 of their concatenated
# stdout pins every byte that describe renders for them.
DESCRIBE_SWEEP = [
    ("sl_r", {"n": 5}), ("sl_c", {"n": 4}), ("sl_h", {"n": 3}), ("so_c", {"n": 7}),
    ("so_c", {"n": 8}), ("sp_c", {"n": 3}), ("so_pq", {"p": 3, "q": 3}),
    ("so_pq", {"p": 4, "q": 2}), ("sp_pq", {"p": 2, "q": 2}), ("sp_pq", {"p": 3, "q": 1}),
    ("so_star", {"n": 4}),
]
DESCRIBE_SWEEP_SHA256 = "d669a7d2c183edc60d5baab8356ca1e263e3093303c6d3149fb780761d6892a5"


def _describe_argv(family: str, params: dict, datum) -> list:
    """describe's argv for one datum: --datum and, for a signed diagram,
    --signs naming every part."""
    partition = datum.partition
    argv = ["describe", "--algebra", family]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    argv += ["--datum", ",".join(map(str, partition.parts()))]
    if partition is not datum:
        argv += ["--signs", ",".join(f"{d}:{p}" for d, p in datum.p_pairs)]
    return argv


def test_describe_sweep_digest(capsys):
    digest = hashlib.sha256()
    commands = 0
    for family, params in DESCRIBE_SWEEP:
        for rec in enumerate_orbits(AlgebraSpec(family, **params)):
            for fmt in ("json", "table"):
                code, out, err = run(capsys, *_describe_argv(family, params, rec.datum),
                                     "--format", fmt)
                assert (code, err) == (0, "")
                digest.update(out.encode())
                commands += 1
    assert commands == 142
    assert digest.hexdigest() == DESCRIBE_SWEEP_SHA256


# Every algebra below is listed as json and then as a table: 234 commands.
# The SHA-256 of their concatenated stdout pins every byte that list
# renders for them.
LIST_SWEEP = (
    [("so_c", {"n": n}) for n in range(3, 15)]
    + [("sp_c", {"n": n}) for n in range(1, 8)]
    + [("so_pq", {"p": p, "q": s - p}) for s in range(2, 11) for p in range(1, s)]
    + [("sp_pq", {"p": p, "q": s - p}) for s in range(2, 9) for p in range(1, s)]
    + [("so_star", {"n": n}) for n in range(1, 9)]
    + [("sl_r", {"n": n}) for n in range(2, 9)]
    + [("sl_c", {"n": n}) for n in range(2, 7)]
    + [("sl_h", {"n": n}) for n in range(1, 6)]
)
LIST_SWEEP_SHA256 = "bb1797d5f47343466b631c84306426fbf5f5d9e5bc8609442f6de062a896fdf5"


def test_list_sweep_digest(capsys):
    digest = hashlib.sha256()
    commands = 0
    for family, params in LIST_SWEEP:
        argv = ["list", "--algebra", family]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        for fmt in ("json", "table"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert (code, err) == (0, "")
            digest.update(out.encode())
            commands += 1
    assert commands == 234
    assert digest.hexdigest() == LIST_SWEEP_SHA256


def _no_triple_matrices(monkeypatch):
    """Make the part blocks of X, H and Y raise in every nilorb module holding them."""
    import nilorb.triples

    def forbidden(*args, **kwargs):
        raise AssertionError("X, H or Y was built")
    original = nilorb.triples._triple_block
    for module_name, module in list(sys.modules.items()):
        if ((module_name == "nilorb" or module_name.startswith("nilorb."))
                and vars(module).get("_triple_block") is original):
            monkeypatch.setattr(module, "_triple_block", forbidden)


def test_list_and_orbit_dim_build_no_triple_matrices(capsys, monkeypatch):
    """The graded solves read only the Gram matrix and the slot weights."""
    from nilorb.centralizers import centralizer_report, expected_orbit_dim
    from nilorb.triples import build_triple

    _no_triple_matrices(monkeypatch)
    a = AlgebraSpec("sp_c", n=2)
    records = [r for r in enumerate_orbits(a) if not r.is_zero_orbit]
    with pytest.raises(AssertionError, match="X, H or Y was built"):
        build_triple(a, records[0].datum)
    code, out, _ = run(capsys, "list", "--algebra", "so_pq", "--p", "2", "--q", "1",
                       "--format", "json")
    assert (code, out) == (0, (DATA / "list_so_pq_2_1.json").read_text())
    code, _, _ = run(capsys, "list", "--algebra", "sl_h", "--n", "3")
    assert code == 0
    for rec in records:
        assert centralizer_report(a, rec.datum).dim_orbit == expected_orbit_dim(a, rec.datum)


def _cold_factor_layouts():
    """Empty the factor layout memo; the returned callable reads how many
    layouts were built since, one per distinct (algebra, datum)."""
    from nilorb.homotopy import factor_layout

    factor_layout.cache_clear()
    return lambda: factor_layout.cache_info().misses


# One nonzero orbit of each family with a homotopy descriptor.
_ONE_ORBIT_PER_DESCRIPTOR_FAMILY = [
    ("sl_r", ["--n", "3", "--datum", "2,1"]),
    ("sl_c", ["--n", "3", "--datum", "3"]),
    ("sl_h", ["--n", "2", "--datum", "2"]),
    ("so_c", ["--n", "5", "--datum", "3,1,1"]),
    ("so_pq", ["--p", "2", "--q", "1", "--datum", "3", "--signs", "3:0"]),
    ("sp_c", ["--n", "2", "--datum", "2,1,1"]),
    ("sp_pq", ["--p", "1", "--q", "1", "--datum", "2", "--signs", "2:1"]),
]


def test_factor_layout_cases_cover_every_descriptor_family():
    from nilorb.families import FAMILY_SPECS

    assert ({family for family, _ in _ONE_ORBIT_PER_DESCRIPTOR_FAMILY}
            == {family for family, spec in FAMILY_SPECS.items() if spec.has_descriptor})


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("family,args", _ONE_ORBIT_PER_DESCRIPTOR_FAMILY,
                         ids=[f for f, _ in _ONE_ORBIT_PER_DESCRIPTOR_FAMILY])
def test_describe_builds_the_factor_layout_once(capsys, family, args, fmt):
    """The centralizer report carries the descriptor that describe prints."""
    built = _cold_factor_layouts()
    code, _, _ = run(capsys, "describe", "--algebra", family, *args, "--format", fmt)
    assert code == 0
    assert built() == 1


@pytest.mark.parametrize("family,args", [
    ("sl_r", {"n": 4}), ("sl_h", {"n": 3}), ("so_c", {"n": 6}), ("sp_c", {"n": 3}),
    ("so_pq", {"p": 3, "q": 2}), ("sp_pq", {"p": 2, "q": 2}), ("so_star", {"n": 3}),
], ids=str)
def test_list_builds_the_factor_layout_once_per_record(capsys, family, args):
    a = AlgebraSpec(family, **args)
    built = _cold_factor_layouts()
    argv = [x for k, v in args.items() for x in (f"--{k}", str(v))]
    code, _, _ = run(capsys, "list", "--algebra", family, *argv, "--format", "json")
    assert code == 0
    expected = len(enumerate_orbits(a)) if a.family_spec.has_descriptor else 0
    assert built() == expected


@pytest.mark.parametrize("a", [
    AlgebraSpec("sl_r", n=4), AlgebraSpec("sl_c", n=3), AlgebraSpec("sl_h", n=3),
    AlgebraSpec("so_c", n=5), AlgebraSpec("so_pq", p=3, q=2), AlgebraSpec("sp_c", n=2),
    AlgebraSpec("sp_pq", p=2, q=1),
], ids=str)
def test_each_public_k_function_builds_the_factor_layout_once(a):
    """From a cold memo, one factor layout serves the defect check, the
    block assembly and the characters of a call."""
    import random

    from nilorb import homotopy
    from nilorb.triples import build_triple

    datum = [r for r in enumerate_orbits(a) if not r.is_zero_orbit][-1].datum
    t = build_triple(a, datum)
    e = homotopy.sample_k_element(a, datum, random.Random(0))
    public = {
        "sample_k_element": lambda: homotopy.sample_k_element(a, datum, random.Random(1)),
        "k_element_defect": lambda: homotopy.k_element_defect(a, datum, e),
        "embed_K": lambda: homotopy.embed_K(a, datum, e),
        "verify_K_membership": lambda: homotopy.verify_K_membership(a, datum, e, t),
        "characters": lambda: homotopy.characters(a, datum, e),
    }
    assert homotopy.verify_K_membership(a, datum, e, t).ok
    for name, call in public.items():
        built = _cold_factor_layouts()
        call()
        assert built() == 1, name


@pytest.mark.parametrize("family,args", [
    ("sl_c", {"n": 3}), ("so_pq", {"p": 2, "q": 2}), ("sp_c", {"n": 2}),
], ids=str)
def test_verify_builds_the_factor_layout_once_per_record_and_per_k_call(
        capsys, family, args):
    """The centralizer report builds one layout per record, and the K calls
    of a nonzero orbit (one sample, one component representative, one
    membership check, one embedding and two block assemblies) build none:
    they find the record's layout in the memo."""
    a = AlgebraSpec(family, **args)
    records = enumerate_orbits(a)
    built = _cold_factor_layouts()
    argv = [x for k, v in args.items() for x in (f"--{k}", str(v))]
    code, _, _ = run(capsys, "verify", "--algebra", family, *argv)
    assert code == 0
    assert built() == len(records)
