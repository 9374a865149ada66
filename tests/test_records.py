"""The package's immutable records (weyl.Frozen and its five subclasses)
keep the value semantics of a frozen dataclass: repr, equality within one
class, hashing by field tuple, immutability, and pickling through __init__."""

import copy
import pickle

import pytest

from charge_lab.chains import MuChain, mu_chain
from charge_lab.fillings import Filling
from charge_lab.foldings import FoldedChain, fold_chain
from charge_lab.verify import VerifyResult
from charge_lab.weyl import Frozen, LieType, ValidationError

A3 = LieType("A", 3)
C2 = LieType("C", 2)

RECORDS = [
    (A3, "LieType(variant='A', n=3)"),
    (mu_chain(A3, (1,)),
     "MuChain(lt=LieType(variant='A', n=3), mu=(1, 0, 0), roots=((1, 3), (1, 2)), "
     "levels=(1, 1), parts=((1, 0, 2),))"),
    (Filling(C2, ((1,), (-1,))),
     "Filling(lt=LieType(variant='C', n=2), columns=((1,), (-1,)))"),
    (fold_chain(mu_chain(A3, (1,)), (2, 1, 3), [1]),
     "FoldedChain(elements=((2, 1, 3), (3, 1, 2)), J_plus=(), J_minus=(1,))"),
    (VerifyResult("qbg", True, "ok"), "VerifyResult(name='qbg', ok=True, detail='ok')"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_format(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_records_are_equal_only_within_their_class(record, text):
    rebuilt = type(record)(*fields(record))
    assert rebuilt == record and not rebuilt != record
    assert record != fields(record) and fields(record) != record
    assert record.__eq__(fields(record)) is NotImplemented


def test_equal_fields_in_another_record_class_are_not_equal():
    assert LieType("A", 3) != ("A", 3)
    assert VerifyResult("x", (), ()) != FoldedChain("x", (), ())
    assert len({VerifyResult("x", (), ()), FoldedChain("x", (), ())}) == 2


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_a_record_hashes_as_its_field_tuple(record, text):
    assert hash(record) == hash(fields(record))
    assert hash(type(record)(*fields(record))) == hash(record)


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(record, text):
    for name in type(record).__slots__ + ("other",):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert repr(record) == text
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record,text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips_give_equal_records(record, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record and repr(back) == text
    for back in (copy.copy(record), copy.deepcopy(record)):
        assert type(back) is type(record) and back == record


def test_an_unpickled_lie_type_passes_its_validation():
    data = pickle.dumps(A3, 0)
    assert data.count(b"I3\n") == 1
    with pytest.raises(ValidationError, match="^rank 1 too small for type A$"):
        pickle.loads(data.replace(b"I3\n", b"I1\n"))


def test_a_mu_chain_takes_keywords_and_defaults_its_parts():
    chain = MuChain(lt=A3, mu=(1,), roots=((1, 3), (1, 2)), levels=(1, 1))
    assert chain.parts == ()


def test_every_record_is_slotted_on_the_frozen_base():
    for record, _ in RECORDS:
        assert type(record).__mro__[1:] == (Frozen, object)


@pytest.mark.parametrize("variant,n,message", [
    ("A", 2.0, "rank must be an integer, not 2.0"),
    ("A", True, "rank must be an integer, not True"),
    ("B", "3", "rank must be an integer, not '3'"),
    ("B", 2, "unknown type 'B'"),
    ("B", 0, "unknown type 'B'"),
    ("A", 1, "rank 1 too small for type A"),
    ("C", 0, "rank 0 too small for type C"),
    ("C", -2, "rank -2 too small for type C"),
    ("A", 101, "rank 101 is over the limit of 100"),
    ("C", 101, "rank 101 is over the limit of 100"),
])
def test_lie_type_refuses_with_its_messages_in_order(variant, n, message):
    with pytest.raises(ValidationError) as exc:
        LieType(variant, n)
    assert str(exc.value) == message
