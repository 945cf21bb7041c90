#!/usr/bin/env python3
"""Regenerate the bundled synthetic corpora under data/ (deterministic).

Each domain is written to `<domain>.conll` in the format `pclc.data`
parses: one "token<TAB>tag" line per token, tags O / B-slot / I-slot, and a
blank line after each utterance.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pclc.synthetic import overfit_utterances, transfer_utterances

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def write_corpus(utterances, directory: str) -> None:
    """One `<domain>.conll` file per domain, utterances in generation order."""
    os.makedirs(directory, exist_ok=True)
    by_domain: dict[str, list] = {}
    for utt in utterances:
        by_domain.setdefault(utt.domain, []).append(utt)
    for domain, utts in by_domain.items():
        with open(os.path.join(directory, f"{domain}.conll"), "w", encoding="utf-8") as fh:
            for utt in utts:
                for token, bio, slot in zip(utt.tokens, utt.bio_tags, utt.slot_types):
                    tag = "O" if bio == "O" else f"{bio}-{slot}"
                    fh.write(f"{token}\t{tag}\n")
                fh.write("\n")


def main(root: str = DATA_DIR) -> None:
    write_corpus(overfit_utterances(), os.path.join(root, "overfit"))
    write_corpus(transfer_utterances(), os.path.join(root, "transfer"))
    print(f"wrote corpora under {os.path.abspath(root)}")


if __name__ == "__main__":
    main()
