"""Byte-identity gate: sha256 of every file the CLI writes for a fixed-seed bundle.

The commands run from the bundle directory with relative paths, because
each manifest records its input paths verbatim. A digest changes only when
an output byte changes; refactors must leave all of them as they are.
"""

import hashlib

from reannotate.cli import main

MODELS = [f"predictions_m{j}.jsonl" for j in range(1, 6)]
INPUTS = [
    "--hierarchy", "hierarchy.json",
    "--dataset", "pool.jsonl",
    *[flag for name in MODELS for flag in ("--predictions", name)],
    "--gold", "gold.jsonl",
]
ALL_STRATEGIES = [
    flag for name in ("gd", "ld", "confidence", "random") for flag in ("--strategy", name)
]

COMMANDS = {
    "bundle": ["synth", "--out", ".", "--seed", "7", "--pool-size", "2000"],
    "rank": ["rank", *INPUTS, *ALL_STRATEGIES, "--seed", "3", "--out", "rank"],
    "sweep": [
        "sweep", *INPUTS, "--strategy", "gd", "--strategy", "ld", "--strategy", "random",
        "--seed", "3", "--out", "sweep",
    ],
    "f1curve": ["f1curve", *INPUTS, *ALL_STRATEGIES, "--seed", "3", "--out", "f1curve"],
    "f1curve_keep": [
        "f1curve", *INPUTS, *ALL_STRATEGIES, "--seed", "3", "--keep-eliminated",
        "--out", "f1curve_keep",
    ],
}

GOLDEN = {
    "f1curve/f1_confidence.csv": "a8db0a306de52a2913ddc9afd719d133e3a79f58d7c3403f9701c88abdb65511",
    "f1curve/f1_gd.csv": "29165c8b981acea3d545d8a9d14dd434e5f684d7e25217d82f050f9b7a7a27dc",
    "f1curve/f1_ld.csv": "8d0e88105ee149ebde5cb02c0fc5821fffe2761a27d48f526d29b05aa66563b0",
    "f1curve/f1_random.csv": "a0d7caaf99419674cbf85b94d565efa7103f2f860eedfc6030cd7e41e751a01f",
    "f1curve/manifest.json": "3cf7e4eab56f759da803763054b1c68f79915285aa0f8028603ed7dd0f637625",
    "f1curve_keep/f1_confidence.csv": "373f4543e7ee3c185aa15624f58cbf275230be1665c6e66dc8955454f7083687",
    "f1curve_keep/f1_gd.csv": "f2c85417f5e6d5916f9faed3bd688f230424b00c16476ff7139d87fb12b9a380",
    "f1curve_keep/f1_ld.csv": "f139fb93fb73ce113a7badb24503583521582a02e6d838a19b96327837f0df94",
    "f1curve_keep/f1_random.csv": "38eb315d650048d8471922f043641d2872942aa1380f178abfa2f7d66499afcb",
    "f1curve_keep/manifest.json": "1dae633bc6b031cab2a572bc82c9a142259034b58ee8c00c3bc9d042e6214ea9",
    "gold.jsonl": "e727ed46098df29a70050d64b8d10c80b7c2560ddd880d31bd289fc0ad3c2d64",
    "hierarchy.json": "50b38dd092066b59a9f6604c73ccf9339dd0de028c6239c87375be8b62d8e50a",
    "manifest.json": "48f066cd07c7b015756a3de85125b478dc2c6741f1fe587fed24c70343cd3a68",
    "pool.jsonl": "1a1e3bf78e40538727fe75988207564fb5078cb0a684400c1bc237d7cfe58795",
    "predictions_m1.jsonl": "e70e1ffe342de92ae80f0992232a43b67b9cdbc71636aa0a461b534934507757",
    "predictions_m2.jsonl": "22ab4a8920ca93ced94bf520d3715d22e1d086b9b49b14af278a8cc8e8ba821b",
    "predictions_m3.jsonl": "a51b9d92308a619aef3aafeccd392751e12a65498011092dd657e8bb0b3f15df",
    "predictions_m4.jsonl": "ece58fc7cb450afcd65a42e5b9d63ffa203cca34fee7e4221d76f4b354280d39",
    "predictions_m5.jsonl": "a6bf87d0cacde38e8ddca5973e57d4f549462cc158e2619bef266acddcbdb827",
    "rank/manifest.json": "149176ed9f9c3ccdca83d029086e32466123d55a3488de20f9c0bc1b43dd8e8f",
    "rank/ranked_confidence.csv": "8c653411164686c674f9e6a2f44ec60e583ed05795aaedb3aa5eeab91250e75e",
    "rank/ranked_gd.csv": "da6e9cbb0dada71738774984b9ea7724a991d13bede52543956965816a617ead",
    "rank/ranked_ld.csv": "55b8e1a14390f83aa5fc65ec9d21bd1493970a3ab6f04f4b6ef21fb6b2258bdc",
    "rank/ranked_random.csv": "cb4f31b076f4683fa8552d2c810e20dad91674ba02f015763d76c237b40ecf18",
    "sweep/efficiency_gd.csv": "443ac230fcfede7a285c0765cb41533f8b7e48ea0e19c2dd3fe6ae806a57bd4b",
    "sweep/efficiency_ld.csv": "7887a6a8a8abc6fae406b24698fbe3be162d6461689e4ed54e3567e907a747d8",
    "sweep/efficiency_random.csv": "7ed9ddc6b6ada35d1bfd770b0d43175a2b2bab852dac0162bbe0cef68a294037",
    "sweep/jaccard_gd.csv": "fe84d261c7a50159627ee2e8cd0bc531a6ca3879d9fbadeb2595c3639c1836c8",
    "sweep/jaccard_ld.csv": "1a93f4a73bcacf0c126e4cdd1db232d8dde4c97b9a89859c8685d785804d38db",
    "sweep/jaccard_random.csv": "7b3dc36dddafc125f5949939fc2de7be9ff2686358ca7b6f13f05a3681850255",
    "sweep/manifest.json": "f5d1ef0e2d04ea457c4c734086232e0a6e6be867a738bf68e7c1f4baa126f495",
}


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_cli_outputs_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS.values():
        assert main(argv) == 0
    assert _digests(tmp_path) == GOLDEN
