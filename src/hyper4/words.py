"""Freely reduced words over named generators.

A word is a sequence of letters (name, exponent) with exponent +1 or -1,
kept freely reduced.  The compact text form writes a generator as its
lowercase letter and the inverse as the uppercase letter, so "Ab" parses
to a^-1 b.  Concatenation reads left to right: evaluating "xy" against a
matrix assignment yields M(x) @ M(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

__all__ = ["Letter", "Word", "parse_word", "EMPTY_WORD"]

Letter = tuple[str, int]


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    stack: list[Letter] = []
    for name, exp in letters:
        if exp not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {exp}")
        if stack and stack[-1][0] == name and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((name, exp))
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """Freely reduced word; use Word.make or parse_word to construct."""

    letters: tuple[Letter, ...]

    @classmethod
    def make(cls, letters: Iterable[Letter]) -> "Word":
        return cls(_free_reduce(letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        base = self if n >= 0 else self.inverse()
        return Word.make(base.letters * abs(n))

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def cyclic_reduce(self) -> "Word":
        letters = self.letters
        i, j = 0, len(letters) - 1
        while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
            i += 1
            j -= 1
        return Word(letters[i : j + 1]) if i else self

    def names(self) -> set[str]:
        return {name for name, _ in self.letters}

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        if all(len(name) == 1 and name.isalpha() and name.islower() for name, _ in self.letters):
            return "".join(name if exp == 1 else name.upper() for name, exp in self.letters)
        return " ".join(name if exp == 1 else f"{name}^-1" for name, exp in self.letters)


EMPTY_WORD = Word(())


def parse_word(text: str) -> Word:
    """Parse compact case-coded syntax: lowercase generator, uppercase inverse.

    "1" (or the empty string) denotes the identity word.
    """
    stripped = text.strip()
    if stripped in ("", "1"):
        return EMPTY_WORD
    letters: list[Letter] = []
    for ch in stripped:
        if ch.isspace():
            continue
        if not ch.isalpha():
            raise ValueError(f"invalid character {ch!r} in word {text!r}")
        letters.append((ch.lower(), 1 if ch.islower() else -1))
    return Word.make(letters)
