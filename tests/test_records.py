"""Value semantics of the record classes: construction, equality, hashing,
repr and immutability, as the frozen dataclasses they replace gave them."""

from fractions import Fraction

import pytest

from sublabel import (Classification, Digraph, FamilyTag, LabelingDocument,
                      MuBound, SearchQuery, SearchReport, Target, TotalLabeling,
                      Verdict, WeightProfile)

GRAPH = Digraph(2, ((0, 1),))
OTHER_GRAPH = Digraph(2, ((1, 0),))
TARGET = Target("arc", "magic")
QUERY = SearchQuery(GRAPH, TARGET)
LABELING = TotalLabeling((3, 1), (2,))

# class, its field names in order, the values of one instance (trailing
# defaults left out), the defaults of the fields left out, one value list
# that makes a different instance, and the repr of the first instance
CASES = [
    (FamilyTag, ("name", "n", "t", "orientation"), ("cycle", 3), (None, None),
     ("star", 3, None, "in"),
     "FamilyTag(name='cycle', n=3, t=None, orientation=None)"),
    (Digraph, ("vertex_count", "arcs", "family"), (2, ((0, 1),)), (None,),
     (2, ((1, 0),), None),
     "Digraph(vertex_count=2, arcs=((0, 1),), family=None)"),
    (TotalLabeling, ("vertex_labels", "arc_labels"), ((3, 1), (2,)), (),
     ((1, 3), (2,)),
     "TotalLabeling(vertex_labels=(3, 1), arc_labels=(2,))"),
    (WeightProfile, ("arc_weights", "vertex_weights"), ((0,), (1, 3)), (),
     ((0,), (3, 1)),
     "WeightProfile(arc_weights=(0,), vertex_weights=(1, 3))"),
    (Verdict, ("kind", "mu", "a", "d"), ("magic",), (None, None, None),
     ("arithmetic", None, 1, 2),
     "Verdict(kind='magic', mu=None, a=None, d=None)"),
    (Classification, ("arc_verdict", "vertex_verdict", "strong", "strong_star"),
     (Verdict("magic", 0), Verdict("none"), False, True), (),
     (Verdict("magic", 0), Verdict("none"), True, True),
     "Classification(arc_verdict=Verdict(kind='magic', mu=0, a=None, d=None), "
     "vertex_verdict=Verdict(kind='none', mu=None, a=None, d=None), "
     "strong=False, strong_star=True)"),
    (MuBound, ("s", "lower", "upper"), (3, Fraction(2), Fraction(5, 2)), (),
     (3, Fraction(2), Fraction(5)),
     "MuBound(s=3, lower=Fraction(2, 1), upper=Fraction(5, 2))"),
    (LabelingDocument, ("graph", "labeling", "classification", "notes"), (GRAPH,),
     (None, None, ()),
     (GRAPH, None, None, ("a note",)),
     "LabelingDocument(graph=Digraph(vertex_count=2, arcs=((0, 1),), family=None), "
     "labeling=None, classification=None, notes=())"),
    (Target, ("side", "kind", "a", "d"), ("arc", "magic"), (None, None),
     ("vertex", "magic", None, None),
     "Target(side='arc', kind='magic', a=None, d=None)"),
    (SearchQuery, ("graph", "target", "require_strong", "require_strong_star", "mode",
                   "limit"),
     (GRAPH, TARGET), (False, False, "count-all", None),
     (OTHER_GRAPH, TARGET, False, False, "count-all", None),
     "SearchQuery(graph=Digraph(vertex_count=2, arcs=((0, 1),), family=None), "
     "target=Target(side='arc', kind='magic', a=None, d=None), require_strong=False, "
     "require_strong_star=False, mode='count-all', limit=None)"),
    (SearchReport, ("query", "exhaustive", "solutions_found", "witnesses", "nodes_visited",
                    "automorphisms", "dual", "elapsed"),
     (QUERY, True, 1, [LABELING], 4, 1, False, 0.5), (),
     (QUERY, True, 1, [LABELING], 5, 1, False, 0.5),
     "SearchReport(query=" + repr(QUERY) + ", exhaustive=True, solutions_found=1, "
     "witnesses=[TotalLabeling(vertex_labels=(3, 1), arc_labels=(2,))], nodes_visited=4, "
     "automorphisms=1, dual=False, elapsed=0.5)"),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,fields,values,defaults,other,text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, values, defaults, other, text):
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    assert [getattr(positional, f) for f in fields] == list(values + defaults)
    assert [getattr(keyword, f) for f in fields] == list(values + defaults)
    assert cls(*values, *defaults) == positional == keyword
    with pytest.raises(TypeError):
        cls(*values, *defaults, None)  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("cls,fields,values,defaults,other,text", CASES, ids=IDS)
def test_equality_sees_the_fields_and_the_class(cls, fields, values, defaults, other, text):
    x, same, different = cls(*values), cls(*values), cls(*other)
    assert x == same and not x != same
    assert x != different and not x == different
    as_tuple = tuple(values + defaults)  # the same values in another class
    assert x != as_tuple and not x == as_tuple
    assert x != None  # noqa: E711 -- == against None must not raise
    assert repr(x) == text


@pytest.mark.parametrize("cls,fields,values,defaults,other,text",
                         [c for c in CASES if c[0] is not SearchReport],
                         ids=[i for i in IDS if i != "SearchReport"])
def test_frozen_records_hash_alike_and_refuse_assignment(cls, fields, values, defaults,
                                                         other, text):
    x, same = cls(*values), cls(*values)
    assert hash(x) == hash(same)
    assert len({x, same, cls(*other)}) == 2
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(same, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert x == same


def test_unhashable_document_classification_stays_unhashable():
    doc = LabelingDocument(GRAPH, LABELING, classification={"arc": {"kind": "none"}})
    with pytest.raises(TypeError):
        hash(doc)


def test_search_report_refuses_assignment_and_hash():
    # frozen like the other records; its witness list has no hash
    report, same = (SearchReport(QUERY, True, 1, [LABELING], 4, 1, False, 0.5)
                    for _ in range(2))
    with pytest.raises(TypeError):
        hash(report)
    for f in SearchReport._fields:
        with pytest.raises(AttributeError):
            setattr(report, f, getattr(same, f))
        with pytest.raises(AttributeError):
            delattr(report, f)
    assert report == same


def test_family_tag_names_stay_outside_equality_hash_and_repr():
    tag, fresh = FamilyTag("tadpole", 3, 2), FamilyTag("tadpole", 3, 2)
    assert tag.arc_names[-1] == "c"
    assert tag == fresh and hash(tag) == hash(fresh) and repr(tag) == repr(fresh)
    assert repr(tag) == "FamilyTag(name='tadpole', n=3, t=2, orientation=None)"


def test_construction_checks_still_run():
    with pytest.raises(ValueError, match="self-loop"):
        Digraph(1, ((0, 0),))
    with pytest.raises(ValueError, match="target side"):
        Target("edge", "magic")
    with pytest.raises(ValueError, match="search mode"):
        SearchQuery(GRAPH, TARGET, mode="all")
    with pytest.raises(ValueError, match="integers"):
        TotalLabeling((1.0,), ())
    # the stored fields are the checked ones: lists become tuples
    assert Digraph(2, [[0, 1]]).arcs == ((0, 1),)
    assert TotalLabeling([3, 1], [2]) == LABELING
