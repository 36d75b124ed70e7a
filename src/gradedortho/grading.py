"""Graded index sets: ordered levels of labelled basis elements."""


class GradedIndex:
    """Partition of a finite vector set into ordered, non-empty levels.

    Flat positions are level-major and preserve the within-level label
    order, so level k occupies the contiguous slice
    ``[offsets[k], offsets[k] + sizes[k])``.  ``level_ids`` carries the
    user-facing level numbers; they default to 0..K but may skip values
    after isotropic promotion merges levels.
    """

    def __init__(self, levels, level_ids=None):
        levels = [tuple(str(lbl) for lbl in level) for level in levels]
        if not levels:
            raise ValueError("a graded index needs at least one level")
        for pos, level in enumerate(levels):
            if not level:
                raise ValueError(f"level {pos} is empty; index sets must be non-empty")
            if len(set(level)) != len(level):
                raise ValueError(f"level {pos} has duplicate labels")
        if level_ids is None:
            level_ids = tuple(range(len(levels)))
        else:
            level_ids = tuple(int(i) for i in level_ids)
            if len(level_ids) != len(levels):
                raise ValueError("level_ids must match the number of levels")
            if sorted(level_ids) != list(level_ids) or len(set(level_ids)) != len(level_ids):
                raise ValueError("level_ids must be strictly increasing")
        self.levels = tuple(levels)
        self.level_ids = level_ids
        self.sizes = tuple(len(level) for level in levels)
        offsets = [0]
        for size in self.sizes:
            offsets.append(offsets[-1] + size)
        self.offsets = tuple(offsets[:-1])
        self.total = offsets[-1]

    def __len__(self):
        return len(self.levels)

    def __eq__(self, other):
        return (
            isinstance(other, GradedIndex)
            and self.levels == other.levels
            and self.level_ids == other.level_ids
        )

    def __repr__(self):
        inner = ", ".join(
            f"{lid}:{list(level)}" for lid, level in zip(self.level_ids, self.levels)
        )
        return f"GradedIndex({inner})"

    def level_slice(self, pos):
        """Flat slice occupied by the level at list position ``pos``."""
        return slice(self.offsets[pos], self.offsets[pos] + self.sizes[pos])
