import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udkernels.conllu import (
    DepTree,
    Token,
    parse_conllu,
    parse_conllu_file,
    to_conllu,
    validate,
)
from udkernels.errors import ConlluError

SAMPLE = """\
# sent_id = s1
# text = The memo presents details
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tmemo\tmemo\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tpresents\tpresent\tVERB\t_\tTense=Pres\t0\troot\t_\t_
4\tdetails\tdetail\tNOUN\t_\t_\t3\tobj\t_\tEntity=e1

# sent_id = s2
1\tok\tok\tADJ\t_\t_\t0\troot\t_\t_
"""


def test_parse_basic_fields():
    trees = parse_conllu(SAMPLE)
    assert [t.sent_id for t in trees] == ["s1", "s2"]
    first = trees[0]
    assert len(first) == 4
    assert first.text == "The memo presents details"
    assert first.token(3).feats == {"Tense": "Pres"}
    assert first.token(4).misc == {"Entity": "e1"}
    assert first.token(2).head == 3
    assert first.root_id == 3
    assert first.children(3) == (2, 4)


def test_parse_skips_ranges_and_empty_nodes():
    text = (
        "1-2\tdoesn't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdoes\tdo\tAUX\t_\t_\t0\troot\t_\t_\n"
        "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "2\tn't\tnot\tPART\t_\t_\t1\tadvmod\t_\t_\n"
    )
    (tree,) = parse_conllu(text)
    assert [t.id for t in tree.tokens] == [1, 2]


def test_parse_synthesizes_sent_id():
    trees = parse_conllu("1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n", source="f.conllu")
    assert trees[0].sent_id == "f.conllu:1"


def test_parse_rejects_bad_column_count():
    with pytest.raises(ConlluError, match="10 columns"):
        parse_conllu("1\ta\ta\tX\t_\t_\t0\troot\t_\n")


def test_parse_rejects_duplicate_ids():
    text = "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n1\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
    with pytest.raises(ConlluError, match="duplicate token id"):
        parse_conllu(text)


def test_roundtrip_preserves_everything():
    trees = parse_conllu(SAMPLE)
    rendered = "".join(to_conllu(t) + "\n" for t in trees)
    again = parse_conllu(rendered)
    assert again == trees


def test_roundtrip_from_constructed_tree(audits_tree):
    (again,) = parse_conllu(to_conllu(audits_tree))
    assert again.sent_id == audits_tree.sent_id
    assert again.tokens == audits_tree.tokens
    assert again.metadata["relation"] == "Message-Topic"


@pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"])
def test_line_ends_only_at_newline(ch):
    # str.splitlines would end the line inside the form and lemma
    text = f"1\ta{ch}b\ta{ch}b\tX\t_\t_\t0\troot\t_\t_\r\n"
    (tree,) = parse_conllu(text)
    assert tree.token(1).form == tree.token(1).lemma == f"a{ch}b"
    assert tree.token(1).misc == {}
    (again,) = parse_conllu(to_conllu(tree))
    assert again.tokens == tree.tokens


def test_lone_carriage_return_survives_a_file(tmp_path):
    # universal-newline reading would end the line inside the form
    (tree,) = parse_conllu("1\ta\rb\ta\rb\tX\t_\t_\t0\troot\t_\t_\n")
    path = tmp_path / "cr.conllu"
    path.write_bytes(to_conllu(tree).encode("utf-8"))
    (again,) = parse_conllu_file(path)
    assert again.token(1).form == "a\rb"
    assert again.tokens == tree.tokens


def test_underscore_lemma_roundtrips_as_none():
    (tree,) = parse_conllu("1\tword\t_\tX\t_\t_\t0\troot\t_\t_\n")
    assert tree.token(1).lemma is None
    assert "\tword\t_\tX" in to_conllu(tree)


def test_validate_clean(audits_tree, memo_tree, farsi_audits_tree):
    for tree in (audits_tree, memo_tree, farsi_audits_tree):
        assert validate(tree) == []


def test_validate_reports_problems(monkeypatch):
    no_root = parse_conllu("1\ta\ta\tX\t_\t_\t1\tdep\t_\t_\n")[0]
    reports = validate(no_root)
    assert any("root" in r for r in reports)
    assert any("head" in r or "cycle" in r for r in reports)

    dangling = parse_conllu(
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n2\tb\tb\tX\t_\t_\t9\tdep\t_\t_\n"
    )[0]
    assert any("9" in r for r in validate(dangling))


def test_validate_detects_cycle():
    text = (
        "1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n"
        "2\tb\tb\tX\t_\t_\t3\tdep\t_\t_\n"
        "3\tc\tc\tX\t_\t_\t2\tdep\t_\t_\n"
    )
    (tree,) = parse_conllu(text)
    assert any("cycle" in r for r in validate(tree))



@pytest.mark.parametrize("column, name", [(3, "UPOS"), (7, "DEPREL")])
def test_parse_rejects_an_empty_tag_naming_its_line(column, name):
    # an empty tag used to parse, and its lexical-centred tree held an
    # unlabeled node that a saved model could not read back
    cols = "2\tdog\tdog\tNOUN\t_\t_\t1\tnsubj\t_\t_".split("\t")
    cols[column] = ""
    text = "1\tbarks\tbark\tVERB\t_\t_\t0\troot\t_\t_\n" + "\t".join(cols) + "\n"
    with pytest.raises(ConlluError, match=f"^f.conllu:2: empty {name} column$"):
        parse_conllu(text, source="f.conllu")


def test_underscore_tags_still_parse():
    (tree,) = parse_conllu("1\ta\ta\t_\t_\t_\t0\t_\t_\t_\n")
    assert tree.token(1).upos == "_" and tree.token(1).deprel == "_"


@pytest.mark.parametrize(
    "heads, found", [((1, 1), 0), ((0, 0), 2), ((0, 1, 0), 2)]
)
def test_root_id_refuses_no_root_or_several_as_data_error(heads, found):
    # a bare ValueError escaped the command line's error report
    text = "".join(
        f"{i}\tw\tw\tX\t_\t_\t{head}\tdep\t_\t_\n" for i, head in enumerate(heads, start=1)
    )
    (tree,) = parse_conllu(text, source="f.conllu")
    with pytest.raises(ConlluError, match=f"^f.conllu:1: expected one root, found {found}$"):
        tree.root_id


# A Token built through a frozen dataclass's generated __init__, the
# reference for the one the parser calls.
ReferenceToken = dataclasses.make_dataclass(
    "Token", [(f.name, f.type) for f in dataclasses.fields(Token)], frozen=True
)

# any text a column may hold: no tab or line feed, and no carriage return,
# which would end a line's last column
cells = st.text(st.characters(blacklist_characters="\t\n\r"), max_size=6)
tags = cells.filter(lambda s: s != "")
optional = st.one_of(st.none(), cells.filter(lambda s: s != "_"))
pairs = st.dictionaries(
    st.text(st.characters(blacklist_characters="\t\n\r|="), min_size=1, max_size=4).filter(
        lambda s: s != "_"
    ),
    st.text(st.characters(blacklist_characters="\t\n\r|"), max_size=4),
    max_size=3,
)


@st.composite
def token_fields(draw):
    n = draw(st.integers(1, 6))
    return [
        dict(
            id=i,
            form=draw(cells),
            lemma=draw(optional),
            upos=draw(tags),
            xpos=draw(optional),
            feats=draw(pairs),
            head=0 if i == 1 else draw(st.integers(0, n)),
            deprel=draw(tags),
            misc=draw(pairs),
        )
        for i in range(1, n + 1)
    ]


@settings(max_examples=60, deadline=None)
@given(token_fields())
def test_parsed_tokens_equal_constructed_ones(rows):
    tree = DepTree(sent_id="s", tokens=tuple(Token(**row) for row in rows))
    (parsed,) = parse_conllu(to_conllu(tree))
    for tok, row in zip(parsed.tokens, rows):
        assert tok == Token(**row)
        assert repr(tok) == repr(ReferenceToken(**row))
        assert dataclasses.astuple(tok) == dataclasses.astuple(ReferenceToken(**row))
        assert vars(tok) == row
        with pytest.raises(dataclasses.FrozenInstanceError):
            tok.head = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del tok.form
    assert parsed.tokens == tree.tokens


def test_token_replace_and_positional_construction():
    tok = Token(1, "a", None, "X", None, {}, 0, "root", {})
    assert tok == Token(id=1, form="a", lemma=None, upos="X", xpos=None, feats={}, head=0,
                        deprel="root", misc={})
    assert dataclasses.replace(tok, head=2).head == 2 and tok.head == 0
    with pytest.raises(TypeError):
        Token(1, "a")
