import importlib.util
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclc.data import (
    DataFormatError,
    SlotSchema,
    Utterance,
    build_vocab,
    classify_seen_unseen,
    fewshot_select,
    load_corpus,
    load_embeddings,
    parse_conll,
    split_leave_one_out,
    write_split_manifest,
    PAD_INDEX,
    UNK_INDEX,
)
from pclc.errors import PclcError


def _write(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def test_parse_single_utterance(tmp_path):
    path = _write(tmp_path, "music.conll", "add\tO\nkent\tB-artist\njames\tI-artist\n")
    utts = parse_conll(path)
    assert len(utts) == 1
    utt = utts[0]
    assert utt.tokens == ["add", "kent", "james"]
    assert utt.bio_tags == ["O", "B", "I"]
    assert utt.slot_types == [None, "artist", "artist"]
    assert utt.domain == "music"


def test_parse_empty_file(tmp_path):
    path = _write(tmp_path, "empty.conll", "")
    assert parse_conll(path) == []


def test_parse_domain_header_overrides_filename(tmp_path):
    path = _write(tmp_path, "whatever.conll", "# domain: weather\nrain\tO\n")
    assert parse_conll(path)[0].domain == "weather"


def test_parse_malformed_line_reports_line_number(tmp_path):
    path = _write(tmp_path, "bad.conll", "ok\tO\n\nbroken line without tab\n")
    with pytest.raises(DataFormatError) as err:
        parse_conll(path)
    assert ":3:" in str(err.value)


def test_parse_unknown_tag_prefix_errors(tmp_path):
    path = _write(tmp_path, "bad.conll", "word\tX-thing\n")
    with pytest.raises(DataFormatError) as err:
        parse_conll(path)
    assert "X-thing" in str(err.value)


def _write_bytes(directory, name, raw):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(raw)
    return path


def test_parse_non_utf8_byte_names_its_offset(tmp_path):
    raw = b"play\tO\n" * 5000 + b"caf\xe9\tO\n"  # past the first buffered chunk
    path = _write_bytes(tmp_path, "d.conll", raw)
    offset = raw.index(b"\xe9")
    with pytest.raises(DataFormatError) as err:
        parse_conll(path)
    assert str(err.value) == f"{path}: byte 0xe9 at offset {offset} is not UTF-8"


_CONLL_PIECES = [
    b"tok", b"\t", b"\n", b"\r\n", b"O", b"B-", b"I-", b"city_name", b"_", b"# domain: d\n",
    b" ", b"\xe9", b"\xff", "\u00e9".encode(), b"\x00",
]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=300),
        st.lists(st.sampled_from(_CONLL_PIECES), max_size=60).map(b"".join),
    )
)
def test_parse_arbitrary_bytes_parses_or_raises_pclc_error(raw):
    with tempfile.TemporaryDirectory() as directory:
        path = _write_bytes(directory, "dom.conll", raw)
        try:
            parse_conll(path)
        except PclcError:
            pass


def test_parse_repairs_leading_and_dangling_i_tags(tmp_path):
    path = _write(
        tmp_path,
        "fix.conll",
        "one\tI-a\ntwo\tO\nthree\tI-a\nfour\tI-b\n",
    )
    utt = parse_conll(path)[0]
    assert utt.bio_tags == ["B", "O", "B", "B"]


def test_make_corpora_script_rewrites_the_bundled_corpora_byte_for_byte(tmp_path):
    from conftest import DATA_DIR, REPO_ROOT

    path = os.path.join(REPO_ROOT, "scripts", "make_corpora.py")
    spec = importlib.util.spec_from_file_location("make_corpora", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(str(tmp_path))
    for corpus in ("overfit", "transfer"):
        bundled = sorted(os.listdir(os.path.join(DATA_DIR, corpus)))
        assert sorted(os.listdir(os.path.join(tmp_path, corpus))) == bundled
        for name in bundled:
            with open(os.path.join(tmp_path, corpus, name), "rb") as fh:
                written = fh.read()
            with open(os.path.join(DATA_DIR, corpus, name), "rb") as fh:
                assert written == fh.read(), f"{corpus}/{name}"


def test_load_corpus_reads_bundled_transfer_data():
    from conftest import DATA_DIR

    corpus, schema = load_corpus(os.path.join(DATA_DIR, "transfer"))
    assert schema.domains == ["bus", "flight", "hotel", "train"]
    assert len(corpus) == 300


def test_load_corpus_matches_generator():
    from conftest import DATA_DIR
    from pclc.synthetic import transfer_utterances

    loaded, _ = load_corpus(os.path.join(DATA_DIR, "transfer"))
    generated = sorted(transfer_utterances(), key=lambda u: u.uid)
    loaded = sorted(loaded, key=lambda u: u.uid)
    for field in ("tokens", "bio_tags", "slot_types", "domain", "uid"):
        assert [getattr(u, field) for u in loaded] == [getattr(u, field) for u in generated]


# ---------------------------------------------------------------------------
# vocab


def _mini_corpus():
    return [
        Utterance(["a", "b"], ["O", "O"], [None, None], "d1", "d1:0"),
        Utterance(["b", "c"], ["O", "O"], [None, None], "d1", "d1:1"),
    ]


def _mini_schema():
    return SlotSchema(
        domains=["d1"],
        slots_of={"d1": ["object_type"]},
        description_tokens={"object_type": ["object", "type"]},
    )


def test_build_vocab_contains_corpus_and_reserved_tokens():
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    for tok in ("a", "b", "c"):
        assert tok in vocab.word_index
    assert vocab.word_index["<pad>"] == PAD_INDEX
    assert vocab.word_index["<unk>"] == UNK_INDEX
    assert vocab.word_id("unseen-token") == UNK_INDEX


def test_build_vocab_includes_slot_description_tokens():
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    assert "object" in vocab.word_index
    assert "type" in vocab.word_index


def test_build_vocab_deterministic_across_runs():
    v1 = build_vocab(_mini_corpus(), _mini_schema())
    v2 = build_vocab(_mini_corpus(), _mini_schema())
    assert v1.word_index == v2.word_index
    assert v1.char_index == v2.char_index


@settings(max_examples=30, deadline=None)
@given(st.permutations(range(4)))
def test_build_vocab_order_independent(order):
    utts = [
        Utterance([w], ["O"], [None], "d1", f"d1:{i}")
        for i, w in enumerate(["zeta", "alpha", "mid", "qq"])
    ]
    shuffled = [utts[i] for i in order]
    schema = SlotSchema(domains=["d1"], slots_of={"d1": []}, description_tokens={})
    assert build_vocab(shuffled, schema).word_index == build_vocab(utts, schema).word_index


# ---------------------------------------------------------------------------
# embeddings


def test_load_embeddings_reads_file_rows(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    path = _write(tmp_path, "vec.txt", "cat 0.1 0.2\nb 0.5 -0.5\n")
    table = load_embeddings(path, vocab, dim=2, seed=0)
    assert np.allclose(table.matrix[vocab.word_index["b"]], [0.5, -0.5])


def test_load_embeddings_missing_words_uniform_small(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    path = _write(tmp_path, "vec.txt", "b 0.5 -0.5\n")
    table = load_embeddings(path, vocab, dim=2, seed=0)
    row = table.matrix[vocab.word_index["a"]]
    assert (np.abs(row) <= 0.1).all()
    assert not np.allclose(row, 0.0)


def test_load_embeddings_padding_row_is_zero(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    path = _write(tmp_path, "vec.txt", "b 0.5 -0.5\n")
    table = load_embeddings(path, vocab, dim=2, seed=0)
    assert np.array_equal(table.matrix[PAD_INDEX], np.zeros(2))


def test_load_embeddings_dimension_mismatch_errors(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    path = _write(tmp_path, "vec.txt", "b 0.5 -0.5\nc 1.0\n")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(path, vocab, dim=2, seed=0)
    assert ":2:" in str(err.value)


def test_load_embeddings_non_utf8_byte_names_its_offset(tmp_path, transfer_corpus):
    corpus, schema = transfer_corpus
    vocab = build_vocab(corpus, schema)
    path = _write_bytes(tmp_path, "vec.txt", b"the 0.1 0.2\n\xff 0.3 0.4\n")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(path, vocab, 2, seed=0)
    assert str(err.value) == f"{path}: byte 0xff at offset 12 is not UTF-8"


def test_load_embeddings_absent_file_gives_random_vectors(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    table = load_embeddings(None, vocab, dim=3, seed=1)
    assert table.matrix.shape == (vocab.n_words, 3)


def test_load_embeddings_named_file_is_used_or_refused(tmp_path):
    vocab = build_vocab(_mini_corpus(), _mini_schema())
    missing = os.path.join(tmp_path, "nope.txt")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(missing, vocab, dim=3, seed=1)
    assert str(err.value) == f"embeddings file not found: {missing}"
    conll = _write(tmp_path, "corpus.conll", "play\tO\nmusic\tB-x\n\n")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(conll, vocab, dim=3, seed=1)
    assert str(err.value) == f"{conll}: no line parses as 'word v1 .. v3'"
    words = _write(tmp_path, "words.txt", "cat 0.1 0.2\nb 0.5 x\n")
    with pytest.raises(DataFormatError) as err:
        load_embeddings(words, vocab, dim=2, seed=1)
    assert str(err.value) == f"{words}:2: non-numeric value after 'b'"


# ---------------------------------------------------------------------------
# splits


def test_split_leave_one_out_structure(transfer_corpus):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, "bus", seed=0)
    assert all(u.domain != "bus" for u in split.train)
    assert len(split.train) == 240
    # 60 bus utterances <= 500: documented deviation takes half for validation
    assert len(split.validation) == 30
    assert len(split.test) == 30
    val_ids = {u.uid for u in split.validation}
    test_ids = {u.uid for u in split.test}
    assert not val_ids & test_ids
    assert len(val_ids | test_ids) == 60


def test_split_unknown_domain_errors(transfer_corpus):
    corpus, schema = transfer_corpus
    with pytest.raises(DataFormatError):
        split_leave_one_out(corpus, schema, "submarine", seed=0)


def test_split_small_domain_takes_half(overfit_corpus):
    corpus, schema = overfit_corpus
    split = split_leave_one_out(corpus, schema, "kitchen", seed=0)
    assert len(split.validation) == 10
    assert len(split.test) == 10


def test_split_deterministic_per_seed(transfer_corpus):
    corpus, schema = transfer_corpus
    a = split_leave_one_out(corpus, schema, "bus", seed=9)
    b = split_leave_one_out(corpus, schema, "bus", seed=9)
    assert [u.uid for u in a.validation] == [u.uid for u in b.validation]
    assert [u.uid for u in a.test] == [u.uid for u in b.test]
    c = split_leave_one_out(corpus, schema, "bus", seed=10)
    assert [u.uid for u in a.validation] != [u.uid for u in c.validation]


@pytest.mark.parametrize("target", ["flight", "train", "hotel", "bus"])
def test_split_partition_sizes_add_up(transfer_corpus, target):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, target, seed=2)
    domain_count = sum(1 for u in corpus if u.domain == target)
    assert len(split.validation) + len(split.test) == domain_count
    assert all(u.domain != target for u in split.train)


def test_fewshot_moves_k_from_test_pool(transfer_corpus):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, "bus", seed=0)
    shot = fewshot_select(split, 5, seed=1)
    assert len(shot.train) == len(split.train) + 5
    assert len(shot.test) == len(split.test) - 5
    assert [u.uid for u in shot.validation] == [u.uid for u in split.validation]
    moved = [u for u in shot.train if u.domain == "bus"]
    assert len(moved) == 5
    assert not {u.uid for u in moved} & {u.uid for u in split.validation}


def test_fewshot_zero_is_identity(transfer_corpus):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, "bus", seed=0)
    assert fewshot_select(split, 0, seed=1) is split


def test_fewshot_negative_errors(transfer_corpus):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, "bus", seed=0)
    with pytest.raises(DataFormatError):
        fewshot_select(split, -1, seed=1)


def test_fewshot_too_large_errors(transfer_corpus):
    corpus, schema = transfer_corpus
    split = split_leave_one_out(corpus, schema, "bus", seed=0)
    with pytest.raises(DataFormatError):
        fewshot_select(split, len(split.test) + 1, seed=1)


# ---------------------------------------------------------------------------
# seen / unseen


def test_seen_unseen_partition_on_transfer_corpus(transfer_corpus):
    _, schema = transfer_corpus
    seen, unseen = classify_seen_unseen(schema, "bus")
    assert seen == ("origin_city", "travel_date")
    assert unseen == ("company_name", "luggage_count")


def test_seen_unseen_all_covered_means_no_unseen():
    schema = SlotSchema(
        domains=["a", "b"],
        slots_of={"a": ["x", "y"], "b": ["x"]},
        description_tokens={"x": ["x"], "y": ["y"]},
    )
    seen, unseen = classify_seen_unseen(schema, "b")
    assert seen == ("x",)
    assert unseen == ()


def test_seen_unseen_exclusive_slot_is_unseen():
    schema = SlotSchema(
        domains=["a", "b"],
        slots_of={"a": ["x"], "b": ["x", "only_here"]},
        description_tokens={"x": ["x"], "only_here": ["only", "here"]},
    )
    _, unseen = classify_seen_unseen(schema, "b")
    assert unseen == ("only_here",)


@pytest.mark.parametrize("target", ["flight", "train", "hotel", "bus"])
def test_seen_unseen_partitions_target_slots_exactly(transfer_corpus, target):
    _, schema = transfer_corpus
    seen, unseen = classify_seen_unseen(schema, target)
    assert sorted(seen + unseen) == schema.slots_of[target]
    assert not set(seen) & set(unseen)


def test_seen_unseen_matches_set_intersection_oracle(transfer_corpus):
    corpus, schema = transfer_corpus
    # independent oracle: recompute from raw utterances with set algebra
    by_domain: dict[str, set] = {}
    for u in corpus:
        by_domain.setdefault(u.domain, set()).update(s for s in u.slot_types if s)
    source_union = by_domain["flight"] | by_domain["train"] | by_domain["hotel"]
    seen, unseen = classify_seen_unseen(schema, "bus")
    assert set(seen) == by_domain["bus"] & source_union
    assert set(unseen) == by_domain["bus"] - source_union


# ---------------------------------------------------------------------------
# manifest


def test_split_manifest_lists_each_uid_once_in_its_partition(tmp_path, transfer_corpus):
    corpus, schema = transfer_corpus
    split = fewshot_select(split_leave_one_out(corpus, schema, "bus", seed=4), 3, seed=4)
    path = os.path.join(tmp_path, "manifest.txt")
    write_split_manifest(split, path)
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n").split("\t") for line in fh]
    assert all(len(fields) == 2 for fields in lines)
    assert [value for key, value in lines if key == "target"] == ["bus"]
    assert [value for key, value in lines if key == "few_shot"] == ["3"]
    parts = ("train", "validation", "test")
    listed = {part: [uid for key, uid in lines if key == part] for part in parts}
    assert {key for key, _ in lines} == {"target", "few_shot", *listed}
    for part, uids in listed.items():
        assert uids == [u.uid for u in getattr(split, part)]
    every = [uid for uids in listed.values() for uid in uids]
    assert len(every) == len(set(every))
