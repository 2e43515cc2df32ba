"""Differential identity for the front end's fast paths.

Three rewrites sit under this suite, each held to a reference that keeps
the old formulation:

* the regex lexer (:mod:`repro.lang.lexer`) against the
  character-at-a-time scanner it replaced (``reference_lexer.py``):
  identical ``(kind, text, line, column, value)`` streams, and identical
  exception class, message and location on rejected input;
* the precedence-climbing expression parser against explicit
  parenthesisation: ``parse(e) == parse(fully_parenthesised(e))``, and
  against a one-function-per-tier reference parser on flat operator
  chains;
* mask-native reaching definitions against the ``engine="sets"``
  solver: decoded ``in_``/``out``, ``reaching_defs_of`` answers and
  data-dependence edges all identical — and the SL20x slice verifier
  still derives its own dependences on the sets engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dataflow import dataflow_engine
from repro.analysis.defuse import compute_data_dependence
from repro.analysis.reaching_defs import compute_reaching_definitions
from repro.corpus import PAPER_PROGRAMS
from repro.corpus.extras import EXTRA_PROGRAMS
from repro.gen.generator import (
    GeneratorConfig,
    generate_interprocedural,
    generate_structured,
    generate_unstructured,
)
from repro.lang.ast_nodes import Binary, Call, Num, Unary, Var
from repro.lang.errors import ParseError
from repro.lang.lexer import Lexer, tokenize
from repro.lang.parser import _BINARY_TIERS, parse_expression
from repro.lang.pretty import pretty, pretty_expr
from repro.lang.tokens import TokenKind
from repro.lint import slice_check
from repro.pdg.builder import analyze_program
from repro.service.incremental import split_source
from repro.slicing.criterion import SlicingCriterion
from repro.slicing.registry import get_algorithm

from tests.property.reference_lexer import reference_tokenize
from tests.property.strategies import (
    expressions,
    structured_programs,
    unstructured_programs,
)

CORPUS = sorted({**PAPER_PROGRAMS, **EXTRA_PROGRAMS}.items())


def generated_sources():
    """Pretty-printed programs of all three generator kinds."""
    sources = []
    for seed in range(8):
        sources.append(pretty(generate_structured(random.Random(seed))))
        sources.append(
            pretty(
                generate_unstructured(
                    random.Random(seed), GeneratorConfig(flat_length=40)
                )
            )
        )
        sources.append(
            pretty(
                generate_interprocedural(
                    random.Random(seed), GeneratorConfig(num_procs=4)
                )
            )
        )
    return sources


GENERATED = generated_sources()


# ----------------------------------------------------------------------
# Lexer.
# ----------------------------------------------------------------------


def scan(tokenizer, source):
    """The token stream as plain tuples, or the error it raised."""
    try:
        return [
            (t.kind, t.text, t.location.line, t.location.column, t.value)
            for t in tokenizer(source)
        ]
    except Exception as error:  # the class is part of the comparison
        location = getattr(error, "location", None)
        return (type(error), str(error), location and tuple(location))


def assert_same_scan(source):
    assert scan(tokenize, source) == scan(reference_tokenize, source)


def padded_spans(source):
    """Each unit's text padded to its absolute lines, the way
    ``incremental_parse`` re-parses a span."""
    spans = split_source(source) or []
    return ["\n" * (span.start_line - 1) + span.text for span in spans]


class TestLexerDifferential:
    @pytest.mark.parametrize("name,entry", CORPUS, ids=[n for n, _ in CORPUS])
    def test_corpus(self, name, entry):
        assert_same_scan(entry.source)

    @pytest.mark.parametrize("index", range(len(GENERATED)))
    def test_generated(self, index):
        assert_same_scan(GENERATED[index])

    @pytest.mark.parametrize("index", range(len(GENERATED)))
    def test_padded_spans(self, index):
        spans = padded_spans(GENERATED[index])
        assert spans
        for span in spans:
            assert_same_scan(span)

    @pytest.mark.parametrize("name,entry", CORPUS, ids=[n for n, _ in CORPUS])
    def test_crlf(self, name, entry):
        assert_same_scan(entry.source.replace("\n", "\r\n"))

    @pytest.mark.parametrize(
        "source",
        [
            "",
            "12ab",
            "x = 12_;",
            "x = 1;\n/* never closed",
            "/*/",
            "a /* x */ b /* y",
            "a & b",
            "a | b",
            "a &",
            "x = ²;",
            "x = 1²;",
            "x = 1²a;",
            "x = 1½;",
            "é = ٤٢; x² = 1;",
            "Ⅷ = 1;",
            "x\x0c= 1;",
            "x = 1; y = 2;",
            "// only a comment",
            "a\r\n\r\n  b\r\n",
        ],
    )
    def test_edge_cases(self, source):
        assert_same_scan(source)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(
                    list("abxyz_019 \t\r\n/*+-=<>!&|(){};:,%")
                    + ["if", "while", "//", "/*", "*/"]
                    + ["\u00b2", "\u00bd", "\u00e9", "\u0663", "\u2167", "\u00a0"]
                ),
                st.characters(),
            ),
            max_size=40,
        ).map("".join)
    )
    @settings(max_examples=400, deadline=None)
    def test_mixed_text(self, source):
        assert_same_scan(source)

    def test_lexer_wrapper(self):
        source = PAPER_PROGRAMS["fig3a"].source
        assert list(Lexer(source).tokens()) == tokenize(source)


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


def fully_parenthesised(expr) -> str:
    """Source text with every compound subexpression in parentheses."""
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Call):
        args = ", ".join(fully_parenthesised(arg) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Unary):
        return f"({expr.op}{fully_parenthesised(expr.operand)})"
    left, right = fully_parenthesised(expr.left), fully_parenthesised(expr.right)
    return f"({left} {expr.op} {right})"


def tiered_parse(source):
    """Reference: one recursive function per precedence tier, the shape
    the expression parser had before precedence climbing."""
    tokens = tokenize(source)
    position = 0

    def tier(level):
        nonlocal position
        if level == len(_BINARY_TIERS):
            return operand()
        left = tier(level + 1)
        while tokens[position].kind in _BINARY_TIERS[level]:
            op = _BINARY_TIERS[level][tokens[position].kind]
            position += 1
            left = Binary(op=op, left=left, right=tier(level + 1))
        return left

    def operand():
        nonlocal position
        token = tokens[position]
        position += 1
        if token.kind in (TokenKind.NOT, TokenKind.MINUS):
            return Unary(op=token.text, operand=operand())
        if token.kind is TokenKind.INT:
            return Num(value=token.value)
        return Var(name=token.text)

    return tier(0)


_OPERATORS = [op for tier in _BINARY_TIERS for op in tier.values()]


class TestParserDifferential:
    @given(expressions(max_depth=5))
    @settings(max_examples=300, deadline=None)
    def test_minimal_parentheses_equal_full(self, expr):
        minimal = parse_expression(pretty_expr(expr))
        assert minimal == parse_expression(fully_parenthesised(expr))
        assert minimal == expr

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "-", "!", "- -"]),
                st.sampled_from(["a", "b", "7", "0"]),
            ),
            min_size=1,
            max_size=9,
        ),
        st.lists(st.sampled_from(_OPERATORS), min_size=8, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_flat_chain_matches_tiered_reference(self, operands, operators):
        source = " ".join(
            f"{op} {prefix}{name}" if index else f"{prefix}{name}"
            for index, ((prefix, name), op) in enumerate(
                zip(operands, [""] + operators)
            )
        )
        assert parse_expression(source) == tiered_parse(source)

    @pytest.mark.parametrize(
        "source,message",
        [
            ("a +", "expected an expression, found '<eof>'"),
            ("a + * b", "expected an expression, found '*'"),
            ("(a", "expected ')' to close parenthesised expression"),
            ("f(a", "expected ')' to close call arguments"),
            ("a b", "unexpected trailing input 'b'"),
        ],
    )
    def test_error_texts(self, source, message):
        with pytest.raises(ParseError) as info:
            parse_expression(source)
        assert message in str(info.value)


# ----------------------------------------------------------------------
# Reaching definitions.
# ----------------------------------------------------------------------


def assert_reaching_identical(source):
    with dataflow_engine("sets"):
        reference = analyze_program(source)
    fast = analyze_program(source)
    cfg = fast.cfg
    rd_sets = compute_reaching_definitions(cfg, engine="sets")
    rd_bits = compute_reaching_definitions(cfg, engine="bitset")
    assert rd_bits.in_ == rd_sets.in_
    assert rd_bits.out == rd_sets.out
    assert list(compute_data_dependence(cfg, rd_bits).edges()) == list(
        compute_data_dependence(cfg, rd_sets).edges()
    )
    assert list(fast.ddg.edges()) == list(reference.ddg.edges())
    variables = sorted(
        {var for node in cfg.sorted_nodes() for var in node.defs | node.uses}
        | {"never_defined"}
    )
    for node_id in sorted(cfg.nodes):
        for var in variables:
            assert fast.reaching_defs_of(node_id, var) == (
                reference.reaching_defs_of(node_id, var)
            ), (node_id, var)


class TestReachingDefinitionsDifferential:
    @pytest.mark.parametrize("name,entry", CORPUS, ids=[n for n, _ in CORPUS])
    def test_corpus(self, name, entry):
        assert_reaching_identical(entry.source)

    @given(structured_programs())
    @settings(max_examples=30, deadline=None)
    def test_structured(self, program):
        assert_reaching_identical(program)

    @given(unstructured_programs())
    @settings(max_examples=30, deadline=None)
    def test_unstructured(self, program):
        assert_reaching_identical(program)

    def test_verifier_stays_on_the_sets_engine(self, monkeypatch):
        """The SL20x auditor must not share the kernel it audits."""
        engines = []
        original = slice_check.compute_reaching_definitions

        def recording(cfg, engine=None):
            engines.append(engine)
            return original(cfg, engine=engine)

        monkeypatch.setattr(
            slice_check, "compute_reaching_definitions", recording
        )
        entry = PAPER_PROGRAMS["fig3a"]
        analysis = analyze_program(entry.source)
        line, var = entry.criterion
        result = get_algorithm("agrawal")(
            analysis, SlicingCriterion(line=line, var=var)
        )
        assert slice_check.verify_result(result) == []
        assert engines and set(engines) == {"sets"}
