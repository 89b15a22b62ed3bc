"""Free group words, finite presentations, and Fox's free differential calculus.

Words are sequences of (generator index, +-1).  The string syntax used by
fixtures and the command line is whitespace-separated generator names with
an uppercase initial letter marking the inverse: "a B t" is a b^-1 t.
"""


def inverse_spelling(name):
    """How the inverse of generator `name` is written: initial uppercased."""
    return name[0].upper() + name[1:]


class Word:
    """A word in a free group, stored as a tuple of (generator, exponent).

    Exponents are +-1; longer powers are spelled out letter by letter.
    Words multiply by concatenation; `reduce` cancels adjacent inverse
    pairs, and evaluation is invariant under reduction.
    """

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(g), int(e)) for g, e in letters)
        for g, e in letters:
            if g < 0:
                raise ValueError("negative generator index")
            if e not in (1, -1):
                raise ValueError("exponents must be +-1")
        self.letters = letters

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def reduce(self):
        """Freely reduced form: no adjacent cancelling pair remains."""
        out = []
        for g, e in self.letters:
            if out and out[-1] == (g, -e):
                out.pop()
            else:
                out.append((g, e))
        return self if len(out) == len(self.letters) else Word(out)

    def max_generator(self):
        return max((g for g, _ in self.letters), default=-1)

    def exponent_sum(self, gen):
        return sum(e for g, e in self.letters if g == gen)

    def __repr__(self):
        return "Word(%r)" % (list(self.letters),)

    def to_string(self, names):
        toks = []
        for g, e in self.letters:
            toks.append(names[g] if e == 1 else inverse_spelling(names[g]))
        return " ".join(toks)

    @classmethod
    def from_string(cls, text, names):
        """Parse "a B t" style words; uppercase initial letter = inverse."""
        lookup = {n: (i, 1) for i, n in enumerate(names)}
        for i, n in enumerate(names):
            lookup[inverse_spelling(n)] = (i, -1)
        letters = []
        for tok in text.split():
            if tok not in lookup:
                raise ValueError("unknown generator %r (generators: %s)"
                                 % (tok, ", ".join(names)))
            letters.append(lookup[tok])
        return cls(letters)


class GroupPresentation:
    """A finite presentation <g_1, ..., g_n | r_1, ..., r_m>."""

    def __init__(self, generators, relators):
        self.generators = list(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        self.relators = tuple(
            r if isinstance(r, Word) else Word.from_string(r, self.generators)
            for r in relators)
        if any(w.max_generator() >= len(self.generators) for w in self.relators):
            raise ValueError("relator uses an undefined generator")

    @property
    def generator_count(self):
        return len(self.generators)

    def word(self, text):
        return Word.from_string(text, self.generators)

    def __repr__(self):
        rels = ", ".join(r.to_string(self.generators) for r in self.relators)
        return "<%s | %s>" % (", ".join(self.generators), rels)


class GroupRingElement:
    """Formal integer combination of free-group words.

    Terms with equal reduced words are merged and zero terms dropped, so
    equality of normal forms is equality of elements.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged = {}
        for c, w in terms:
            w = w.reduce()
            merged[w] = merged.get(w, 0) + int(c)
        self.terms = tuple(sorted(
            ((c, w) for w, c in merged.items() if c != 0),
            key=lambda t: t[1].letters))

    def __add__(self, other):
        return GroupRingElement(self.terms + other.terms)

    def __eq__(self, other):
        return isinstance(other, GroupRingElement) and self.terms == other.terms

    def __repr__(self):
        return "GroupRingElement(%r)" % (list(self.terms),)


def fox_derivative(word, gen):
    """Fox derivative d(word)/d(gen) in the integral group ring.

    Characterized by d(g)/d(g) = 1, d(h)/d(g) = 0 for h != g,
    d(g^-1)/d(g) = -g^-1 and the product rule
    d(uv)/d(g) = d(u)/d(g) + u d(v)/d(g).
    """
    terms = []
    prefix = []
    for g, e in word:
        if e == 1:
            if g == gen:
                terms.append((1, Word(tuple(prefix))))
            prefix.append((g, 1))
        else:
            prefix.append((g, -1))
            if g == gen:
                terms.append((-1, Word(tuple(prefix))))
    return GroupRingElement(terms)
