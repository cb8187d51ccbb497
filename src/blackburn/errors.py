"""Exception types for group construction, search, and verification."""


class GroupError(Exception):
    """Base class for all errors raised by this package."""


class NotLatinSquare(GroupError):
    """A row or column of the multiplication table is not a permutation."""


class NoIdentity(GroupError):
    """The table has no two-sided identity element."""


class NotAssociative(GroupError):
    """Associativity fails; the message names the first violating triple."""


class NoInverse(GroupError):
    """Some element has no two-sided inverse."""


class BadParams(GroupError):
    """Constructor parameters are out of range or inconsistent."""


class BadPrime(GroupError):
    """The prime is not odd, not prime, or above the supported cap."""


class OrderCap(GroupError):
    """The requested construction or enumeration exceeds its order cap."""


class NotNormal(GroupError):
    """The subgroup is not normal in its parent."""


class NotAutomorphism(GroupError):
    """The map is not a bijective homomorphism of the group to itself."""


class NotPermutation(GroupError):
    """An image list is not a bijection on its domain."""


class SearchBudgetExceeded(GroupError):
    """A backtracking search ran past its node budget."""


class PreconditionFailed(GroupError):
    """An operation's structural precondition does not hold for the input."""


class TrichotomyViolated(GroupError):
    """No admissible case matched; this signals a bug, not a bad input."""


class NotBlackburn2Group(GroupError):
    """The group is not a Blackburn 2-group, so no form label applies."""


class NoFormMatched(GroupError):
    """A Blackburn 2-group matched none of the three known shapes."""


class CounterexampleFound(GroupError):
    """A counterexample check met a violating case, or an input it cannot run on."""


class ClaimFailed(GroupError):
    """A verified construction claim failed; carries the violated claim."""


class NoWitness(GroupError):
    """A search that must succeed found no witness; signals a bug."""


class ActionPropertyFailed(GroupError):
    """A required property of a constructed action does not hold."""


class ParseError(GroupError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
