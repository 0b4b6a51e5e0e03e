"""Exception hierarchy shared by all mmskit modules."""


class MmsKitError(Exception):
    """Base class for all mmskit errors."""


class InputError(MmsKitError):
    """Malformed or out-of-contract input: bad indices, dimensions, parameters."""


class SearchBudgetExceeded(MmsKitError):
    """An exact search ran out of its node budget before proving optimality.

    Raised instead of ever returning a possibly-wrong answer. ``agent`` and
    ``d`` name the share whose search ran out.
    """

    def __init__(self, budget: int, agent: int, d: int):
        self.budget = budget
        self.agent = agent
        self.d = d
        super().__init__(
            f"search budget of {budget} nodes exhausted on agent {agent}'s {d}-share; "
            f"raise the node budget to continue"
        )


class GuaranteeViolation(MmsKitError):
    """A self-check backed by a proven guarantee failed; this signals a bug,
    never a data condition."""
