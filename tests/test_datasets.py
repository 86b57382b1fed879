"""Readers for relation corpora, paraphrase pairs, and prediction files."""

import pytest

from udkernels.datasets import (
    load_pi_dataset,
    load_re_dataset,
    read_predictions,
    write_predictions,
)
from udkernels.errors import DataError

HEAT_SENTENCE = """\
# sent_id = r1
# relation = Cause-Effect
1\tHeat\theat\tNOUN\t_\t_\t2\tnsubj\t_\tEntity=e1
2\tcauses\tcause\tVERB\t_\t_\t0\troot\t_\t_
3\tfires\tfire\tNOUN\t_\t_\t2\tobj\t_\tEntity=e2
4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""

JAR_SENTENCE = """\
# sent_id = r2
# relation = Content-Container
1\tCoins\tcoin\tNOUN\t_\t_\t3\tnsubj\t_\tEntity=e1
2\twere\tbe\tAUX\t_\t_\t3\tcop\t_\t_
3\tinside\tinside\tADP\t_\t_\t0\troot\t_\t_
4\tthe\tthe\tDET\t_\t_\t6\tdet\t_\t_
5\tglass\tglass\tNOUN\t_\t_\t6\tcompound\t_\tEntity=e2
6\tjar\tjar\tNOUN\t_\t_\t3\tnmod\t_\tEntity=e2
"""

CONST_PARSES = """\
(S (N Heat) (VP (V causes) (N fires)) (PU .))
(S (N Coins) (VP (V were) (PP (P inside) (NP (D the) (N glass) (N jar)))))
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def re_corpus(tmp_path):
    return write(tmp_path / "re.conllu", HEAT_SENTENCE + "\n" + JAR_SENTENCE)


def test_load_re_dataset(re_corpus):
    instances = load_re_dataset(re_corpus)
    assert [inst.label for inst in instances] == ["Cause-Effect", "Content-Container"]
    heat, jar = instances
    assert (heat.e1, heat.e2) == (1, 3)
    assert heat.e1_span == (1, 1)
    assert heat.const_tree is None
    # multiword mention: span covers both tokens, the head is the one
    # attached outside the span
    assert jar.e2_span == (5, 6)
    assert jar.e2 == 6
    assert jar.dep_tree.token(jar.e2).form == "jar"


def test_load_re_dataset_with_parses(re_corpus, tmp_path):
    const = write(tmp_path / "re.const", CONST_PARSES)
    instances = load_re_dataset(re_corpus, const_path=const)
    assert instances[0].const_tree is not None
    assert instances[1].const_tree is not None


def test_parses_keep_a_lone_carriage_return(re_corpus, tmp_path):
    # const_to_bracketed escapes the carriage return inside the label
    const = tmp_path / "re.const"
    const.write_bytes(CONST_PARSES.replace("(V causes)", "(V\\\rX causes)").encode("utf-8"))
    heat, _ = load_re_dataset(re_corpus, const_path=const)
    assert heat.const_tree.children[1].children[0].label == "V\rX"


def test_const_count_mismatch(re_corpus, tmp_path):
    const = write(tmp_path / "re.const", CONST_PARSES.splitlines()[0] + "\n")
    with pytest.raises(DataError, match="1 parses for 2 sentences"):
        load_re_dataset(re_corpus, const_path=const)


def test_missing_relation(tmp_path):
    bad = write(
        tmp_path / "bad.conllu",
        HEAT_SENTENCE.replace("# relation = Cause-Effect\n", ""),
    )
    with pytest.raises(DataError, match="missing relation"):
        load_re_dataset(bad)


def test_missing_entity(tmp_path):
    bad = write(tmp_path / "bad.conllu", HEAT_SENTENCE.replace("Entity=e2", "_"))
    with pytest.raises(DataError, match="Entity=e2"):
        load_re_dataset(bad)


def test_non_contiguous_entity_span(tmp_path):
    bad = write(
        tmp_path / "bad.conllu",
        JAR_SENTENCE.replace("5\tglass\tglass\tNOUN\t_\t_\t6\tcompound\t_\tEntity=e2",
                             "5\tglass\tglass\tNOUN\t_\t_\t6\tcompound\t_\t_")
        .replace("1\tCoins\tcoin\tNOUN\t_\t_\t3\tnsubj\t_\tEntity=e1",
                 "1\tCoins\tcoin\tNOUN\t_\t_\t3\tnsubj\t_\tEntity=e1|Entity2=x"),
    )
    # e2 now marks tokens 4 and 6 only
    really_bad = write(
        tmp_path / "gap.conllu",
        JAR_SENTENCE.replace("4\tthe\tthe\tDET\t_\t_\t6\tdet\t_\t_",
                             "4\tthe\tthe\tDET\t_\t_\t6\tdet\t_\tEntity=e2")
        .replace("5\tglass\tglass\tNOUN\t_\t_\t6\tcompound\t_\tEntity=e2",
                 "5\tglass\tglass\tNOUN\t_\t_\t6\tcompound\t_\t_"),
    )
    with pytest.raises(DataError, match="not contiguous"):
        load_re_dataset(really_bad)
    load_re_dataset(bad)  # still fine: spans stayed contiguous


PI_BANK = """\
# sent_id = s1
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = s2
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tchirp\tchirp\tVERB\t_\t_\t0\troot\t_\t_

# sent_id = s3
1\tStones\tstone\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsink\tsink\tVERB\t_\t_\t0\troot\t_\t_
"""


@pytest.fixture
def pi_bank(tmp_path):
    return write(tmp_path / "bank.conllu", PI_BANK)


def test_load_pi_dataset(pi_bank, tmp_path):
    pairs = write(tmp_path / "pairs.tsv", "1\ts1\ts2\n# comment\n\n0\ts1\ts3\n")
    instances = load_pi_dataset(pairs, pi_bank)
    assert len(instances) == 2
    assert instances[0].label is True
    assert instances[1].label is False
    assert instances[0].tree_a.sent_id == "s1"
    assert instances[0].tree_b.sent_id == "s2"
    # the same sentence object backs every pair that references it
    assert instances[0].tree_a is instances[1].tree_a


def test_pi_ids_keep_a_lone_carriage_return(tmp_path):
    bank = write(tmp_path / "bank.conllu", PI_BANK.replace("s2", "s\r2"))
    pairs = tmp_path / "pairs.tsv"
    pairs.write_bytes(b"1\ts1\ts\r2\r\n")
    (instance,) = load_pi_dataset(pairs, bank)
    assert instance.tree_b.sent_id == "s\r2"


def test_pi_bad_label(pi_bank, tmp_path):
    pairs = write(tmp_path / "pairs.tsv", "2\ts1\ts2\n")
    with pytest.raises(DataError, match="label must be 0 or 1"):
        load_pi_dataset(pairs, pi_bank)


def test_pi_unknown_sentence(pi_bank, tmp_path):
    pairs = write(tmp_path / "pairs.tsv", "1\ts1\ts9\n")
    with pytest.raises(DataError, match="unknown sent_id 's9'"):
        load_pi_dataset(pairs, pi_bank)


def test_pi_field_count(pi_bank, tmp_path):
    pairs = write(tmp_path / "pairs.tsv", "1\ts1\n")
    with pytest.raises(DataError, match="3 tab-separated"):
        load_pi_dataset(pairs, pi_bank)


def test_pi_duplicate_bank_id(tmp_path):
    bank = write(tmp_path / "bank.conllu", PI_BANK.replace("s3", "s1"))
    pairs = write(tmp_path / "pairs.tsv", "1\ts1\ts2\n")
    with pytest.raises(DataError, match="duplicate sent_id s1"):
        load_pi_dataset(pairs, bank)


def test_pi_pairs_whose_ids_coincide_through_a_double_colon(tmp_path):
    tokens = PI_BANK.split("\n\n")[0].split("\n", 1)[1]
    sids = ("x::y", "z", "x", "y::z")
    bank = write(
        tmp_path / "bank.conllu", "\n\n".join(f"# sent_id = {sid}\n{tokens}" for sid in sids) + "\n"
    )
    # one such pair, and one pair listed twice, keep their joined ids; the
    # repeat is refused later, as a repeated instance id of the split
    alone = write(tmp_path / "alone.tsv", "1\tx::y\tz\n0\tx::y\tz\n")
    assert [i.instance_id for i in load_pi_dataset(alone, bank)] == ["x::y::z", "x::y::z"]
    # x::y + z and x + y::z both join to x::y::z
    pairs = write(tmp_path / "pairs.tsv", "1\tx::y\tz\n0\tx\ty::z\n")
    with pytest.raises(DataError) as excinfo:
        load_pi_dataset(pairs, bank)
    assert str(excinfo.value) == (
        f"{pairs}:2: pair ('x', 'y::z') has the instance id 'x::y::z' of the pair "
        "('x::y', 'z') on line 1, because a sent_id holds '::'"
    )


def test_prediction_roundtrip(tmp_path):
    path = tmp_path / "pred.tsv"
    decisions = [{"b": 0.5, "a": -1.25}, {"a": 2.0, "b": 0.125}]
    write_predictions(path, ["i1", "i2"], ["yes", "no"], decisions)
    text = path.read_text()
    assert text == "i1\tyes\ta=-1.25\tb=0.5\ni2\tno\ta=2.0\tb=0.125\n"
    assert read_predictions(path) == [("i1", "yes"), ("i2", "no")]


def test_prediction_ids_keep_a_lone_carriage_return(tmp_path):
    path = tmp_path / "pred.tsv"
    write_predictions(path, ["i\r1", "i2"], ["yes", "no"])
    assert read_predictions(path) == [("i\r1", "yes"), ("i2", "no")]


def test_predictions_without_decisions(tmp_path):
    path = tmp_path / "pred.tsv"
    write_predictions(path, ["x"], ["1"])
    assert path.read_text() == "x\t1\n"
    assert read_predictions(path) == [("x", "1")]


def test_read_predictions_rejects_short_rows(tmp_path):
    path = tmp_path / "pred.tsv"
    path.write_text("only-an-id\n")
    with pytest.raises(DataError, match="at least id and label"):
        read_predictions(path)
