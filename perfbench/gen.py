"""Seeded generator of romanized code-mixed POS corpora and a short-form lexicon.

The ICON-2016 Bengali/Hindi/Telugu-English files are not part of the
repository, so the benchmark generates text with their statistical shape:

* Zipfian vocabularies per language and label, with some surfaces shared
  between open-class labels so that only context decides the tag;
* labels drawn from a fixed Markov chain, so transitions carry information;
* switching between a romanized Indic language (``hi``) and English
  (``en``) inside a sentence;
* ``univ`` tokens: punctuation, emoticons, hashtags, @mentions and URLs;
* romanized noise: vowel elongation, digits standing for syllables, and
  vowel-dropped short forms that the generated lexicon maps back;
* source styles (facebook, twitter, whatsapp) with their own heavy-tailed
  sentence-length distributions and noise rates;
* a novel-surface mode for streams of mostly new spellings.

Everything is a function of the seed; the same seed gives byte-identical
files.  Run ``python3 perfbench/gen.py --seed 1 --out DIR`` to write the
files of one seed, or import :func:`generate`.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import random
from pathlib import Path
from statistics import NormalDist

# The 12 labels of the universal tagset: the word labels below plus X and "."
WORD_LABELS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "CONJ", "NUM", "PRT")
OPEN_LABELS = ("NOUN", "VERB", "ADJ", "ADV")

# Label bigram chain.  Row "<S>" gives the first label of a sentence.
CHAIN = {
    "<S>": {"PRON": 4, "NOUN": 4, "DET": 3, "ADV": 1, "VERB": 1, "X": 1, "CONJ": 1},
    "NOUN": {"VERB": 4, "ADP": 3, "NOUN": 2, ".": 2, "CONJ": 1, "PRT": 1, "X": 0.5},
    "VERB": {"PRT": 2, "NOUN": 2, "ADV": 2, ".": 3, "PRON": 1, "DET": 1, "VERB": 1, "ADP": 1},
    "ADJ": {"NOUN": 6, ".": 1, "CONJ": 1, "ADJ": 1},
    "ADV": {"VERB": 4, "ADJ": 3, "ADV": 1, ".": 1},
    "PRON": {"VERB": 5, "NOUN": 2, "ADV": 1, "ADP": 1, "PRT": 1},
    "DET": {"NOUN": 6, "ADJ": 3, "NUM": 1},
    "ADP": {"DET": 3, "NOUN": 4, "PRON": 2, "NUM": 1},
    "CONJ": {"PRON": 3, "NOUN": 2, "DET": 2, "VERB": 1, "ADV": 1},
    "NUM": {"NOUN": 5, "ADJ": 1, ".": 1},
    "PRT": {"VERB": 3, ".": 3, "NOUN": 1, "ADJ": 1},
    "X": {"X": 1, ".": 2, "NOUN": 1, "PRON": 1},
    ".": {"PRON": 2, "NOUN": 2, "X": 2, ".": 1, "DET": 1, "CONJ": 1, "ADV": 1},
}

VOCAB_SIZE = {
    "NOUN": 2400, "VERB": 1500, "ADJ": 900, "ADV": 400,
    "PRON": 24, "DET": 12, "ADP": 30, "CONJ": 14, "NUM": 40, "PRT": 20,
}
SHARED_SHARE = 0.12  # open-class words that also occur under another open label
ZIPF_S = 1.07
LEXICON_TOP = 60  # per language and label: frequent words whose short form the lexicon maps back

SYLLABLES = {
    "hi": (
        ("k", "kh", "g", "gh", "ch", "j", "t", "th", "d", "dh", "n", "p", "ph", "b",
         "bh", "m", "r", "l", "sh", "s", "h", "v", "y"),
        ("a", "a", "aa", "i", "ee", "u", "oo", "e", "ai", "o"),
        ("", "", "", "n", "r", "k", "t", "m"),
    ),
    "en": (
        ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "w", "st",
         "tr", "pl", "gr", "br", "sp", "th", "wh", "f", "t"),
        ("a", "e", "i", "o", "u", "ea", "ou", "oo", "ai", "o", "a", "e"),
        ("", "", "n", "t", "s", "ng", "ck", "ll", "te", "ne", "re"),
    ),
}
# English digit spellings of whole syllables: gr8, 2day, 4ever, some1.
DIGIT_SYLLABLES = (("ate", "8"), ("to", "2"), ("for", "4"), ("one", "1"))
EMOTICONS = (":)", ":(", ":D", ":P", ";)", "<3", ":-)", "xD", ":'(", "^_^")
PUNCT = (".", ",", "!", "?", "...", "!!", "?!", "-", ":", "..")
URL_HOSTS = ("t.co", "bit.ly", "fb.me", "youtu.be", "goo.gl")


# Source styles: sentence length is log-normal (median, sigma, cap), and
# each style has its own noise and univ-token rates.  Lengths are taken at
# evenly spaced quantiles, so a file has the same length distribution and
# token count for every seed; only the text changes.
STYLES = {
    "facebook": dict(median=12.0, sigma=0.65, cap=90, switch=0.12, elong=0.03,
                     digit=0.3, short=0.05, hashtag=0.02, mention=0.01, url=0.01, emoticon=0.02),
    "twitter": dict(median=10.0, sigma=0.45, cap=40, switch=0.15, elong=0.05,
                    digit=0.5, short=0.10, hashtag=0.08, mention=0.06, url=0.04, emoticon=0.03),
    "whatsapp": dict(median=6.0, sigma=0.8, cap=60, switch=0.18, elong=0.10,
                     digit=0.6, short=0.20, hashtag=0.01, mention=0.0, url=0.01, emoticon=0.10),
}

# Sentences per source style in each input, per scale.  "full" is the
# benchmark size (about 1,000 training tokens, 10,000 held-out tokens and
# 1,500 tokens per stream chunk); "tiny" is the self-test size.
SCALES = {
    "full": dict(train={"facebook": 30, "twitter": 28, "whatsapp": 30},
                 heldout={"facebook": 270, "twitter": 270, "whatsapp": 360},
                 stream_chunk={"facebook": 40, "twitter": 40, "whatsapp": 55}),
    "tiny": dict(train={"facebook": 10, "twitter": 11, "whatsapp": 12},
                 heldout={"facebook": 15, "twitter": 18, "whatsapp": 24},
                 stream_chunk={"facebook": 4, "twitter": 4, "whatsapp": 6}),
}


def sentence_lengths(style: str, n: int) -> list[int]:
    """n log-normal sentence lengths at evenly spaced quantiles."""
    st = STYLES[style]
    dist = NormalDist(math.log(st["median"]), st["sigma"])
    return [min(st["cap"], max(1, round(math.exp(dist.inv_cdf((i + 0.5) / n))))) for i in range(n)]


class Zipf:
    """Sampler of ranks 0..n-1 with p(r) proportional to 1/(r+2.7)^s."""

    def __init__(self, n: int, s: float = ZIPF_S):
        self.cum = list(itertools.accumulate(1.0 / (r + 2.7) ** s for r in range(n)))

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cum, rng.random() * self.cum[-1])


def _make_word(rng: random.Random, lang: str, n_syll: int) -> str:
    onsets, nuclei, codas = SYLLABLES[lang]
    parts = [rng.choice(onsets) + rng.choice(nuclei) for _ in range(n_syll)]
    return "".join(parts) + rng.choice(codas)


def _fresh_words(rng: random.Random, lang: str, n: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        word = _make_word(rng, lang, rng.choice((1, 2, 2, 3, 3, 4)))
        if len(word) >= 2 and word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _novel_word(rng: random.Random, lang: str, taken: set[str]) -> str:
    while True:
        word = _make_word(rng, lang, rng.choice((2, 2, 3, 3, 4)))
        if word not in taken:
            return word


def _drop_vowels(word: str) -> str:
    """Vowel-dropped short form: keep the first letter and the final vowel."""
    inner = "".join(c for c in word[1:-1] if c not in "aeiou")
    return word[0] + inner + word[-1]


def _elongate(rng: random.Random, word: str) -> str:
    spots = [i for i, c in enumerate(word) if c in "aeiouy"]
    if not spots:
        return word + word[-1] * rng.randint(2, 4)
    i = spots[-1]
    return word[: i + 1] + word[i] * rng.randint(2, 5) + word[i + 1:]


def _digitize(word: str) -> str | None:
    for syllable, digit in DIGIT_SYLLABLES:
        if syllable in word:
            return word.replace(syllable, digit, 1)
    return None


class Language:
    """Vocabularies, Zipf samplers and the short-form lexicon of one seed."""

    def __init__(self, seed: int):
        rng = random.Random(f"mixtag-bench-vocab-{seed}")
        self.taken: set[str] = set()
        self.vocab: dict[tuple[str, str], list[str]] = {}
        for lang in ("hi", "en"):
            for label in WORD_LABELS:
                if label == "NUM":
                    words = [str(n) for n in range(VOCAB_SIZE[label] // 2)]
                    words += _fresh_words(rng, lang, VOCAB_SIZE[label] - len(words), self.taken)
                else:
                    words = _fresh_words(rng, lang, VOCAB_SIZE[label], self.taken)
                if lang == "en" and label in OPEN_LABELS:
                    # plant digit-spellable syllables in some English words
                    for i in range(0, len(words), 9):
                        words[i] = words[i][:-1] + rng.choice(("ate", "to", "for", "one"))
                self.vocab[lang, label] = words
            # open-class ambiguity: reuse words of another open label
            for label in OPEN_LABELS:
                words = self.vocab[lang, label]
                for i in range(len(words)):
                    if rng.random() < SHARED_SHARE:
                        other = rng.choice([o for o in OPEN_LABELS if o != label])
                        donor = self.vocab[lang, other]
                        words[i] = donor[min(len(donor) - 1, int(rng.random() ** 2 * len(donor)))]
        self.taken.update(w for ws in self.vocab.values() for w in ws)
        self.zipf = {key: Zipf(len(words)) for key, words in self.vocab.items()}
        self.chain = {
            prev: (tuple(nxt), list(itertools.accumulate(nxt.values())))
            for prev, nxt in CHAIN.items()
        }
        self.lexicon: dict[str, str] = {}
        for lang in ("hi", "en"):
            for label in OPEN_LABELS + ("PRON", "ADP", "PRT"):
                for word in self.vocab[lang, label][:LEXICON_TOP]:
                    short = _drop_vowels(word)
                    if short != word and short not in self.lexicon and short not in self.taken:
                        self.lexicon[short] = word

    def next_label(self, rng: random.Random, prev: str) -> str:
        labels, cum = self.chain[prev]
        return labels[bisect.bisect_left(cum, rng.random() * cum[-1])]


class SentenceSampler:
    """Draws labelled sentences in one source style.

    With ``novel`` set, open-class words are mostly fresh spellings that
    the vocabulary (and hence any model trained on it) has never seen.
    """

    def __init__(self, language: Language, rng: random.Random, style: str, novel: bool = False):
        self.lang_model = language
        self.rng = rng
        self.style = dict(STYLES[style])
        self.novel = novel
        if novel:
            self.style.update(elong=0.15, digit=0.7, short=0.10, hashtag=0.06, mention=0.04, url=0.03)

    def _univ(self, label: str) -> str:
        rng, st = self.rng, self.style
        if label == ".":
            if rng.random() < st["emoticon"] / (st["emoticon"] + 0.1):
                return rng.choice(EMOTICONS)
            return rng.choice(PUNCT)
        roll = rng.random() * (st["hashtag"] + st["mention"] + st["url"] + 1e-9)
        if roll < st["hashtag"]:
            return "#" + self._word("en", "NOUN", plain=True) + rng.choice(("", "", "day", "2016"))
        if roll < st["hashtag"] + st["mention"]:
            return "@" + self._word("en", "NOUN", plain=True) + str(rng.randrange(100))
        token = "".join(rng.choice("abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ0123456789") for _ in range(7))
        return f"http://{rng.choice(URL_HOSTS)}/{token}"

    def _word(self, lang: str, label: str, plain: bool = False) -> str:
        rng, lm = self.rng, self.lang_model
        if self.novel and label in OPEN_LABELS and rng.random() < 0.65:
            return _novel_word(rng, lang, lm.taken)
        words = lm.vocab[lang, label]
        word = words[lm.zipf[lang, label].sample(rng)]
        if plain or label == "NUM":
            return word
        st = self.style
        roll = rng.random()
        if roll < st["short"]:
            short = _drop_vowels(word)
            if lm.lexicon.get(short) == word:
                return short
        elif roll < st["short"] + st["elong"]:
            return _elongate(rng, word)
        if lang == "en" and rng.random() < st["digit"]:
            return _digitize(word) or word
        return word

    def sentence(self, length: int) -> list[tuple[str, str, str]]:
        rng, st = self.rng, self.style
        lang = "hi" if rng.random() < 0.6 else "en"
        label = "<S>"
        out = []
        for _ in range(length):
            label = self.lang_model.next_label(rng, label)
            if rng.random() < st["switch"]:
                lang = "en" if lang == "hi" else "hi"
            if label in (".", "X"):
                out.append((self._univ(label), "univ", label))
            else:
                out.append((self._word(lang, label), lang, label))
        return out


def draw(language: Language, rng: random.Random, counts: dict[str, int], novel: bool = False):
    """Sentences in the given styles and counts, in shuffled order."""
    samplers = {style: SentenceSampler(language, rng, style, novel) for style in counts}
    plan = [(style, n) for style, count in counts.items() for n in sentence_lengths(style, count)]
    rng.shuffle(plan)
    return [samplers[style].sentence(n) for style, n in plan]


def render(sentences, with_pos: bool) -> str:
    """Column text in the corpus format: one token per line, blank line between sentences."""
    blocks = []
    for s in sentences:
        rows = (f"{w}\t{l}\t{p}" if with_pos else f"{w}\t{l}" for w, l, p in s)
        blocks.append("\n".join(rows) + "\n")
    return "\n".join(blocks)


def descriptors(sentences, lexicon: dict[str, str]) -> dict:
    """Input properties the tagger's cost depends on."""
    lengths = sorted(len(s) for s in sentences)
    surfaces = [w for s in sentences for w, _, _ in s]
    n = len(surfaces)
    return {
        "sentences": len(sentences),
        "tokens": n,
        "sentence_len_p50": lengths[len(lengths) // 2],
        "sentence_len_p99": lengths[min(len(lengths) - 1, math.ceil(0.99 * len(lengths)) - 1)],
        "labels": len({p for s in sentences for _, _, p in s}),
        "surface_repeat_share": 1.0 - len(set(surfaces)) / n,
        "lexicon_hit_share": sum(w in lexicon for w in surfaces) / n,
    }


def stream_chunk(language: Language, seed: int, chunk: int, scale: str = "full"):
    """Chunk ``chunk`` of the novel-surface post stream for ``seed``."""
    rng = random.Random(f"mixtag-bench-stream-{seed}-{chunk}")
    return draw(language, rng, SCALES[scale]["stream_chunk"], novel=True)


def generate(seed: int, out: Path, scale: str = "full") -> dict:
    """Write every input of every workload for ``seed`` under ``out``.

    Files: facebook.txt, twitter.txt, whatsapp.txt (the training split, 3
    columns), lexicon.tsv, heldout.txt/heldout.gold.txt (held-out Zipfian
    text, 2 and 3 columns), stream0.txt/stream0.gold.txt (the first chunk of
    the novel post stream) and descriptors.json.  Returns the descriptors
    of the training split, the held-out file and the first stream chunk.
    """
    sizes = SCALES[scale]
    out.mkdir(parents=True, exist_ok=True)
    language = Language(seed)
    files: dict[str, str] = {}
    train_sents = []
    for style, count in sizes["train"].items():
        rng = random.Random(f"mixtag-bench-train-{seed}-{style}")
        sents = draw(language, rng, {style: count})
        train_sents.extend(sents)
        files[f"{style}.txt"] = render(sents, True)
    files["lexicon.tsv"] = "# generated short-form lexicon\n" + "".join(
        f"{k}\t{v}\n" for k, v in sorted(language.lexicon.items())
    )

    heldout = draw(language, random.Random(f"mixtag-bench-heldout-{seed}"), sizes["heldout"])
    files["heldout.txt"] = render(heldout, False)
    files["heldout.gold.txt"] = render(heldout, True)
    stream = stream_chunk(language, seed, 0, scale)
    files["stream0.txt"] = render(stream, False)
    files["stream0.gold.txt"] = render(stream, True)

    desc = {
        "train": descriptors(train_sents, language.lexicon),
        "heldout": descriptors(heldout, language.lexicon),
        "stream0": descriptors(stream, language.lexicon),
    }
    files["descriptors.json"] = json.dumps(dict(desc, seed=seed, scale=scale, lexicon_entries=len(language.lexicon)),
                                           indent=1, sort_keys=True) + "\n"
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return desc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out, args.scale), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
