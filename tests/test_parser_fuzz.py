"""Seeded fuzz of the instance parser, with the stdlib `random` only.

Each input is a valid instance text (comments and degree lines included)
after a few random edits: a token inserted or deleted, a line deleted or
duplicated, two lines swapped, or all lines shuffled.  The parser must
return an instance or raise ParseError; any other exception is a defect.
Every instance it returns must round-trip through `emit_instance` and
`parse_instance`.
"""

import random

from kecss.instances import (MAX_EDGES, MAX_K, MAX_VALUE, MAX_VERTICES,
                             ParseError, emit_instance, gen, parse_instance)

INPUTS = 20_000

VALID = [
    "p kecss 2 1 4\ne 1 2 1\n",
    "# header\np kecss 3 3 2\ne 1 2 5\ne 2 3 5\ne 1 3 5\nd 1 0 2\n",
    "p kecss 4 5 3\n# a comment between edges\ne 1 2 0\ne 2 3 7\ne 3 4 7\n"
    "e 4 1 2\ne 1 3 9\nd 2 1 3\nd 4 0 5\n",
    emit_instance(gen("prism-k3")),
    emit_instance(gen("random", seed=7, n=6, p=0.6, k=4)),
]

# tokens the edits insert: line types, boundary and out-of-range numbers,
# and strings int() rejects or reads in an unusual spelling
TOKENS = ["p", "e", "d", "#", "kecss", "0", "1", "2", "3", "-1", "+2", "007",
          "1_0", "1.5", "1e3", "0x10", "x", "nan", "٣",
          str(MAX_VERTICES), str(MAX_VERTICES + 1), str(MAX_EDGES + 1),
          str(MAX_K + 1), str(MAX_VALUE), str(MAX_VALUE + 1), "9" * 30]


def mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines = [""]
        op = rng.randrange(6)
        i = rng.randrange(len(lines))
        words = lines[i].split()
        if op == 0:  # insert a token
            words.insert(rng.randint(0, len(words)), rng.choice(TOKENS))
            lines[i] = " ".join(words)
        elif op == 1 and words:  # delete a token
            del words[rng.randrange(len(words))]
            lines[i] = " ".join(words)
        elif op == 2:  # delete a line
            del lines[i]
        elif op == 3:  # duplicate a line
            lines.insert(rng.randint(0, len(lines)), lines[i])
        elif op == 4:  # swap two lines
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        else:  # shuffle every line
            rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_mutated_instances_parse_or_raise_parse_error():
    rng = random.Random(2024)
    parsed = rejected = 0
    for _ in range(INPUTS):
        text = mutate(rng, rng.choice(VALID))
        try:
            inst = parse_instance(text)
        except ParseError:
            rejected += 1
            continue
        parsed += 1
        emitted = emit_instance(inst)
        again = parse_instance(emitted)
        assert emit_instance(again) == emitted, text
        assert (again.graph.n, again.k, again.bounds) == (inst.graph.n, inst.k, inst.bounds)
    # both outcomes are common, so neither side of the contract is vacuous
    assert min(parsed, rejected) > 1000
