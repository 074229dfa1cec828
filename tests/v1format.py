"""Writer of the v1 model file format, which mixtag still loads but no longer writes.

v1 is line-oriented text: the labels, the catalogue and lexicon
fingerprints, then one ``key<TAB>label<TAB>weight`` line per weight, with
17 significant digits, for the transitions and for each attribute.  This
is the writer the package used until format v2; the loader tests build
their v1 inputs with it.
"""

from itertools import chain, cycle, repeat

from mixtag.features import escape_value


def _grid_lines(keys, labels, weights):
    L = len(labels)
    return map(
        "{}\t{}\t{:.17g}".format,
        chain.from_iterable(map(repeat, keys, repeat(L))),
        cycle(labels),
        map(float, weights),
    )


def save_v1(model) -> bytes:
    labels, L = model.labels, len(model.labels)
    attributes = model.index.attributes
    lines = [
        "MIXTAG-MODEL 1",
        f"labels {L}",
        *labels,
        f"catalogue {model.catalogue_fingerprint}",
        f"lexicon {model.lexicon_fingerprint}",
        "transitions",
        *_grid_lines(labels, labels, model.weights[: L * L]),
        f"states {len(attributes)}",
        *_grid_lines(map(escape_value, attributes), labels, model.weights[L * L:]),
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")
