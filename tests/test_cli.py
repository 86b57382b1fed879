"""Command line interface: exit codes, output files, error reporting."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from udkernels.cli import main
from udkernels.datasets import read_predictions
from udkernels.errors import ConfigError
from udkernels.pipeline import read_gram
from udkernels.conllu import parse_conllu_file, to_conllu
from udkernels.synthetic import write_pi_corpus, write_re_corpus


@pytest.fixture(scope="module")
def pi_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pi")
    paths = write_pi_corpus(root, n_pairs=10, seed=13)
    config = root / "run.json"
    config.write_text(
        json.dumps(
            {
                "task": "pi",
                "kernel": {"base": {"kind": "PTK"}, "m": 100.0},
                "data": {
                    "train": paths["bank"],
                    "pairs_train": paths["pairs_train.tsv"],
                    "pairs_test": paths["pairs_test.tsv"],
                    "source_lang": "en",
                },
            }
        )
    )
    return root, config


def test_full_command_chain(pi_setup, capsys):
    root, config = pi_setup
    gram = root / "train.gram"
    model = root / "model.json"
    pred = root / "pred.tsv"

    assert main(["gram", "--config", str(config), "--out", str(gram)]) == 0
    assert "wrote" in capsys.readouterr().out
    stored = read_gram(gram)
    assert len(stored) > 0

    assert main(
        ["train", "--config", str(config), "--model", str(model), "--gram", str(gram)]
    ) == 0
    assert "supports per class" in capsys.readouterr().out
    assert json.loads(model.read_text())["task"] == "pi"

    assert main(["predict", "--config", str(config), "--model", str(model), "--out", str(pred)]) == 0
    capsys.readouterr()
    # 10 pairs at a quarter test fraction leaves 2 held-out pairs
    assert len(read_predictions(pred)) == 2

    assert main(["eval", "--config", str(config), "--predictions", str(pred)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("instances:")
    assert "accuracy" in text

    assert main(
        ["eval", "--config", str(config), "--predictions", str(pred), "--format", "json"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["accuracy"] == 1.0


def test_errors_exit_2_with_category(pi_setup, capsys, tmp_path):
    root, config = pi_setup
    missing = tmp_path / "absent.json"
    code = main(["train", "--config", str(missing), "--model", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error [config]:")
    assert "absent.json" in err


def test_predict_refuses_a_model_whose_support_tree_lost_its_last_bracket(
    pi_setup, capsys, tmp_path
):
    _, config = pi_setup
    model = tmp_path / "model.json"
    assert main(["train", "--config", str(config), "--model", str(model)]) == 0
    stored = json.loads(model.read_text())
    stored["supports"][0]["a"] = stored["supports"][0]["a"][:-1]
    model.write_text(json.dumps(stored))
    capsys.readouterr()
    pred = tmp_path / "pred.tsv"
    assert main(["predict", "--config", str(config), "--model", str(model), "--out", str(pred)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [model]: ")
    assert "does not decode" in err
    assert not pred.exists()


def test_verbose_reraises(pi_setup, tmp_path):
    with pytest.raises(ConfigError):
        main(
            [
                "--verbose",
                "train",
                "--config",
                str(tmp_path / "absent.json"),
                "--model",
                str(tmp_path / "m.json"),
            ]
        )


GOOD_SENTENCE = """\
# sent_id = v1
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_
"""

BROKEN_SENTENCE = """\
# sent_id = v2
1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t1\tconj\t_\t_
"""


def test_validate_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.conllu"
    good.write_text(GOOD_SENTENCE)
    assert main(["validate", "--conllu", str(good)]) == 0
    assert "0 problems" in capsys.readouterr().out

    bad = tmp_path / "bad.conllu"
    bad.write_text(BROKEN_SENTENCE)
    assert main(["validate", "--conllu", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "v2:" in out


def test_transform_lct(tmp_path, capsys):
    src = tmp_path / "in.conllu"
    src.write_text(GOOD_SENTENCE)
    out = tmp_path / "out.txt"
    assert main(["transform", "lct", "--conllu", str(src), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("(sing")
    assert "(root)" in text
    # without --out the trees go to stdout
    assert main(["transform", "lct", "--conllu", str(src)]) == 0
    assert capsys.readouterr().out == text


@pytest.mark.parametrize(
    "heads, message",
    [((0, 0), "expected one root, found 2"), ((0, 3, 2), "tokens 2, 3 cannot be reached")],
)
def test_transform_lct_refuses_bad_heads_as_data_error(tmp_path, capsys, heads, message):
    # two roots printed a ValueError traceback; a head cycle was dropped
    src = tmp_path / "bad.conllu"
    src.write_text(
        "".join(f"{i}\tw\tw\tX\t_\t_\t{h}\tdep\t_\t_\n" for i, h in enumerate(heads, start=1))
    )
    assert main(["transform", "lct", "--conllu", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [data]: {src}:1: ") and message in err


def test_transform_collapse(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(
        "# sent_id = c1\n"
        "1\tbecause\tbecause\tSCONJ\t_\t_\t3\tcase\t_\t_\n"
        "2\tof\tof\tADP\t_\t_\t1\tfixed\t_\t_\n"
        "3\train\train\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    out = tmp_path / "out.conllu"
    assert main(["transform", "collapse", "--conllu", str(src), "--out", str(out)]) == 0
    text = out.read_text()
    assert "because of" in text
    assert "\tfixed\t" not in text


def test_transform_pet_requires_const(tmp_path, capsys):
    src = tmp_path / "in.conllu"
    src.write_text(GOOD_SENTENCE)
    assert main(["transform", "pet", "--conllu", str(src)]) == 2
    assert "error [config]" in capsys.readouterr().err


def test_transform_pet_keeps_a_lone_carriage_return(tmp_path):
    src = tmp_path / "in.conllu"
    src.write_text(
        "# sent_id = r1\n"
        "1\tHeat\theat\tNOUN\t_\t_\t2\tnsubj\t_\tEntity=e1\n"
        "2\tcauses\tcause\tVERB\t_\t_\t0\troot\t_\t_\n"
        "3\tfires\tfire\tNOUN\t_\t_\t2\tobj\t_\tEntity=e2\n"
    )
    line = "(S (N Heat) (VP (V\\\rX causes) (N fires)))"
    const = tmp_path / "in.const"
    const.write_bytes((line + "\n").encode("utf-8"))
    out = tmp_path / "out.pet"
    args = ["transform", "pet", "--conllu", str(src), "--const", str(const), "--out", str(out)]
    assert main(args) == 0
    assert out.read_bytes().decode("utf-8") == line + "\n"


PET_SENTENCE = (
    "# sent_id = p1\n"
    "1\ta\ta\tX\t_\t_\t0\troot\t_\tEntity=e1\n"
    "2\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n"
    "3\tc\tc\tX\t_\t_\t1\tdep\t_\tEntity=e2\n"
)


def test_transforms_take_inputs_deeper_than_the_recursion_limit(tmp_path):
    # a head chain for lct; for pet, a parse with one entity leaf at the
    # bottom of a chain of N nodes, so the pruning walks the whole chain
    depth = sys.getrecursionlimit() + 100
    chain = tmp_path / "chain.conllu"
    heads = [(i, (i + 1) % (depth + 1)) for i in range(1, depth + 1)]
    rows = "".join(f"{i}\tw\tw\tX\t_\t_\t{h}\tdep\t_\t_\n" for i, h in heads)
    chain.write_text("# sent_id = c1\n" + rows)
    out = tmp_path / "chain.lct"
    assert main(["transform", "lct", "--conllu", str(chain), "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 1 and out.read_text().count("(w^X") == depth
    src, const = tmp_path / "in.conllu", tmp_path / "in.const"
    src.write_text(PET_SENTENCE)
    const.write_text("(S " + "(N " * depth + "a" + ")" * depth + " b (C c))\n")
    out = tmp_path / "out.pet"
    args = ["transform", "pet", "--conllu", str(src), "--const", str(const), "--out", str(out)]
    assert main(args) == 0
    assert out.read_text() == "(S " + "(N " * depth + "a" + ")" * depth + " b (C c))\n"


def test_transform_pet_refuses_a_span_outside_the_parse_as_data_error(tmp_path, capsys):
    # the parse has two leaves for three tokens: a ValueError traceback
    # escaped before
    src, const = tmp_path / "in.conllu", tmp_path / "in.const"
    src.write_text(PET_SENTENCE)
    const.write_text("(S (A a) (B b))\n")
    assert main(["transform", "pet", "--conllu", str(src), "--const", str(const)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [data]: p1: span (3, 3) outside sentence span (1, 2)")


def test_delta_prints_table(capsys):
    code = main(
        [
            "delta",
            "--kind",
            "PTK",
            "--tree1",
            "(a (b) (c))",
            "--tree2",
            "(a (b) (c))",
            "--lam",
            "0.4",
            "--mu",
            "0.4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.rstrip("\n").split("\n")
    # header plus one row per node of the first tree
    assert len(lines) == 4
    assert lines[0].startswith("\t")


def test_delta_kinds_agree_for_indicator(capsys):
    main(["delta", "--kind", "PTK", "--tree1", "(a (b))", "--tree2", "(a (b))"])
    ptk = capsys.readouterr().out
    main(["delta", "--kind", "SPTK", "--tree1", "(a (b))", "--tree2", "(a (b))"])
    sptk = capsys.readouterr().out
    assert ptk == sptk


@pytest.fixture(scope="module")
def re_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_re")
    paths = write_re_corpus(root, n_per_class=5, seed=13)
    config = root / "run.json"
    config.write_text(
        json.dumps(
            {
                "task": "re",
                "kernel": {"variant": "CK2", "sst": {"kind": "SST"}, "pt": {"kind": "PTK"}},
                "data": {
                    "train": paths["train.conllu"],
                    "test": paths["test.conllu"],
                    "source_lang": "en",
                },
                "resources": {"embeddings": {"en": paths["vectors.txt"]}},
            }
        )
    )
    return root, config


def test_re_chain_and_gram_guard(re_setup, capsys):
    root, config = re_setup
    model = root / "model.json"
    pred = root / "pred.tsv"
    assert main(["train", "--config", str(config), "--model", str(model)]) == 0
    assert main(["predict", "--config", str(config), "--model", str(model), "--out", str(pred)]) == 0
    capsys.readouterr()

    # a gram computed over other instances, under the same kernel, cannot
    # feed training: here the training instances are the test file's
    raw = json.loads(config.read_text())
    raw["data"]["train"] = raw["data"]["test"]
    other = root / "other.json"
    other.write_text(json.dumps(raw))
    gram = root / "other.gram"
    assert main(["gram", "--config", str(other), "--out", str(gram)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(config), "--model", str(model), "--gram", str(gram)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error [data]" in err and "covers different instances" in err


@pytest.mark.parametrize("column, name", [(3, "UPOS"), (7, "DEPREL")])
def test_empty_tag_stops_validate_and_train_by_line(re_setup, capsys, tmp_path, column, name):
    # an empty UPOS passed validate and trained a model whose supports
    # predict could not decode; an empty DEPREL trained the same way
    root, config = re_setup
    raw = json.loads(config.read_text())
    lines = open(raw["data"]["train"], encoding="utf-8").read().split("\n")
    at = next(k for k, line in enumerate(lines) if line[:1].isdigit())
    cols = lines[at].split("\t")
    cols[column] = ""
    lines[at] = "\t".join(cols)
    blank = tmp_path / "blank.conllu"
    blank.write_text("\n".join(lines), encoding="utf-8")
    raw["data"]["train"] = str(blank)
    broken = tmp_path / "blank.json"
    broken.write_text(json.dumps(raw))
    want = f"error [data]: {blank}:{at + 1}: empty {name} column"
    assert main(["validate", "--conllu", str(blank)]) == 2
    assert want in capsys.readouterr().err
    assert main(["train", "--config", str(broken), "--model", str(tmp_path / "m.json")]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "heads, message",
    [
        # the second entity sits in a 2 <-> 3 head cycle, so no head path
        # joins the entities: a bare ValueError used to escape
        ((0, 3, 2), "c1: tokens 2, 3 cannot be reached from the root"),
        # the entities hang from two roots
        ((0, 0, 2), "c1: expected one root, found 2"),
    ],
)
def test_gram_refuses_a_sentence_that_is_not_one_tree(re_setup, capsys, tmp_path, heads, message):
    _, config = re_setup
    raw = json.loads(config.read_text())
    misc = ("Entity=e1", "Entity=e2", "_")
    bad = tmp_path / "bad.conllu"
    bad.write_text(
        "# sent_id = c1\n# relation = Other\n"
        + "".join(
            f"{i}\tw{i}\tw{i}\tNOUN\t_\t_\t{h}\tdep\t_\t{misc[i - 1]}\n"
            for i, h in enumerate(heads, start=1)
        )
    )
    raw["data"]["train"] = str(bad)
    broken = tmp_path / "bad.json"
    broken.write_text(json.dumps(raw))
    assert main(["gram", "--config", str(broken), "--out", str(tmp_path / "bad.gram")]) == 2
    assert f"error [data]: {message}" in capsys.readouterr().err


def test_gram_reports_an_overflowing_vector_pair_as_a_numeric_error(re_setup, capsys, tmp_path):
    # every vector scaled by 1e150: a context-vector pair's float power
    # overflows, which used to escape as an OverflowError traceback
    _, config = re_setup
    raw = json.loads(config.read_text())
    scaled = tmp_path / "scaled.txt"
    rows = [line.split() for line in open(raw["resources"]["embeddings"]["en"], encoding="utf-8")]
    scaled.write_text("".join(" ".join([w, *(repr(float(x) * 1e150) for x in v)]) + "\n" for w, *v in rows))
    raw["resources"]["embeddings"]["en"] = str(scaled)
    broken = tmp_path / "scaled.json"
    broken.write_text(json.dumps(raw))
    assert main(["gram", "--config", str(broken), "--out", str(tmp_path / "scaled.gram")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [numeric]: kernel failed on pair ") and err.count("\n") == 1


@pytest.mark.parametrize("variant", ["CK1", "CK3"])
def test_gram_names_the_sentence_whose_span_is_outside_its_parse(
    re_setup, capsys, tmp_path, variant
):
    _, config = re_setup
    raw = json.loads(config.read_text())
    bad, const = tmp_path / "bad.conllu", tmp_path / "bad.const"
    bad.write_text(PET_SENTENCE.replace("# sent_id = p1\n", "# sent_id = p1\n# relation = Other\n"))
    const.write_text("(S (A a) (B b))\n")
    raw["kernel"]["variant"] = variant
    raw["data"].update(train=str(bad), train_const=str(const), test=None)
    broken = tmp_path / "pet.json"
    broken.write_text(json.dumps(raw))
    assert main(["gram", "--config", str(broken), "--out", str(tmp_path / "bad.gram")]) == 2
    assert "error [data]: p1: span (3, 3) outside sentence span (1, 2)" in capsys.readouterr().err


def test_a_gram_step_loads_no_openssl(pi_setup, tmp_path):
    # the kernel fingerprint takes SHA-256 from the interpreter's own module
    _, config = pi_setup
    script = (
        "import sys\n"
        "from udkernels.cli import main\n"
        "assert main(['gram', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(sorted(name for name in ('_hashlib', 'hashlib') if name in sys.modules))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "fresh.gram")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_a_train_step_loads_no_numpy_ma(pi_setup, tmp_path):
    # np.unique imports numpy.ma; the label check reads a plain set instead
    _, config = pi_setup
    script = (
        "import sys\n"
        "from udkernels.cli import main\n"
        "config, gram, model = sys.argv[1:]\n"
        "assert main(['gram', '--config', config, '--out', gram]) == 0\n"
        "assert main(['train', '--config', config, '--model', model, '--gram', gram]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "fresh.gram"), str(tmp_path / "model.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_a_test_split_with_a_repeated_id_stops_predict_and_eval(tmp_path, capsys):
    paths = write_re_corpus(tmp_path, n_per_class=3, seed=1)
    trees = parse_conllu_file(paths["test.conllu"])
    with open(paths["test.conllu"], "w", encoding="utf-8") as handle:
        for tree in [trees[0], *trees]:
            handle.write(to_conllu(tree) + "\n")
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps(
            {
                "task": "re",
                "kernel": {"variant": "CK2", "pt": {"kind": "PTK"}},
                "data": {
                    "train": paths["train.conllu"],
                    "test": paths["test.conllu"],
                    "source_lang": "en",
                },
                "resources": {"embeddings": {"en": paths["vectors.txt"]}},
            }
        )
    )
    model, pred = tmp_path / "model.json", tmp_path / "pred.tsv"
    assert main(["train", "--config", str(config), "--model", str(model)]) == 0
    capsys.readouterr()
    repeated = f"{paths['test.conllu']}: instance id {trees[0].sent_id} appears more than once"
    want = f"error [data]: {repeated}\n"
    assert main(["predict", "--config", str(config), "--model", str(model), "--out", str(pred)]) == 2
    assert capsys.readouterr().err == want
    assert not pred.exists()
    pred.write_text("".join(f"{tree.sent_id}\tOther\n" for tree in trees))
    assert main(["eval", "--config", str(config), "--predictions", str(pred)]) == 2
    assert capsys.readouterr().err == want
