"""The result records are immutable named tuples: a field cannot be set,
equal fields give equal records with equal hashes, the two validating
records still refuse bad fields, and importing the CLI loads no
`dataclasses`."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weightedres import (
    MultiOrder,
    build_charts,
    constant_tube,
    leading_term_projection,
    make_tschirnhaus,
    minimal_root,
    multiorder,
    parse_ideal,
    principalize,
    tight_presentation_check,
)
from weightedres.blowup import PrincipalizationTrace, TrackedPoint
from weightedres.centers import AlignStep
from weightedres.errors import DomainError
from weightedres.poly import Polynomial
from weightedres.tubes import TubeAlgebra

SRC = Path(__file__).resolve().parents[1] / "src"


def records():
    """One engine-made record of each type, by name."""
    I = parse_ideal("x^5 + x^3*y^3 + y^7")
    res = multiorder(parse_ideal("(x + y^2)^2 + y^5"))
    center = multiorder(I).center
    cert = make_tschirnhaus(I, center)
    step = principalize(I).steps[0]
    return {
        "WeightedChart": build_charts(center, minimal_root(center.exponents))[0],
        "TrackedPoint": TrackedPoint((("x", Fraction(0)),), MultiOrder((2, 3)), False),
        "ChartRecord": step.charts[0],
        "BlowupStep": step,
        "AlignStep": next(c.step for c in res.chain if c.step is not None),
        "LeadingTerm": leading_term_projection(I, center),
        "ContactStep": res.chain[0],
        "InvariantResult": res,
        "LevelWitness": cert.witnesses[0],
        "TschirnhausCertificate": cert,
        "TubeAlgebra": constant_tube(MultiOrder((5, 7))),
        "TightVerdict": tight_presentation_check(I, [], ["x", "y"], MultiOrder((5, 7))),
    }


RECORDS = records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_field_cannot_be_set(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):  # nor a new attribute added
        record.note_added_later = None


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    record = RECORDS[name]
    copy = type(record)(*record)
    assert copy is not record and copy == record and copy._replace() == record
    assert repr(copy) == repr(record) and repr(record).startswith(f"{name}(")
    if name != "WeightedChart":  # its `primes` is a dict
        assert hash(copy) == hash(record)
    # tuple semantics: a record is the tuple of its fields
    assert tuple(record) == record and len(record) == len(record._fields)


def test_the_validating_records_still_refuse_bad_fields():
    amb = ("x", "y")
    with pytest.raises(DomainError, match="invertible coefficient"):
        AlignStep("x", Fraction(0), Polynomial.variable("y", amb))
    with pytest.raises(DomainError, match="invertible coefficient"):
        AlignStep(var="x", coeff=0, tail=Polynomial.variable("y", amb))
    with pytest.raises(DomainError, match="may not involve x"):
        AlignStep("x", Fraction(1), Polynomial.variable("x", amb))
    with pytest.raises(DomainError, match="parameter count must match the width"):
        TubeAlgebra((), ("t1", "t2"), ((2, 0), (0, 3)), MultiOrder((2, 3, 4)))
    with pytest.raises(DomainError, match="relation arity"):
        TubeAlgebra((), ("t1", "t2"), ((2, 0, 1),))
    assert TubeAlgebra(("x",), ("t",), ((3,),)).width is None


def test_a_trace_is_a_mutable_record_of_its_steps():
    trace = PrincipalizationTrace("principalize", "principalized")
    assert (trace.mode, trace.status, trace.steps, trace.step_count()) == (
        "principalize", "principalized", [], 0,
    )
    assert PrincipalizationTrace("embedded", "resolved").steps is not trace.steps


def test_importing_the_cli_loads_no_dataclasses():
    # -S: no site hook may load it first
    code = "import sys, weightedres.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "False"
