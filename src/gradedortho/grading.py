"""Graded index sets: ordered levels of labelled basis elements."""


class GradedIndex:
    """Partition of a finite vector set into ordered, non-empty levels.

    Flat positions are level-major and preserve the within-level label
    order, so level k occupies the contiguous slice
    ``[offsets[k], offsets[k] + sizes[k])``.  A level's id is its
    position k; output levels after an isotropic promotion keep the id
    of the input level holding their last vector.
    """

    def __init__(self, levels):
        levels = [tuple(str(lbl) for lbl in level) for level in levels]
        if not levels:
            raise ValueError("a graded index needs at least one level")
        for pos, level in enumerate(levels):
            if not level:
                raise ValueError(f"level {pos} is empty; index sets must be non-empty")
            if len(set(level)) != len(level):
                raise ValueError(f"level {pos} has duplicate labels")
        self.levels = tuple(levels)
        self.sizes = tuple(len(level) for level in levels)
        offsets = [0]
        for size in self.sizes:
            offsets.append(offsets[-1] + size)
        self.offsets = tuple(offsets[:-1])
        self.total = offsets[-1]

    def __len__(self):
        return len(self.levels)

    def __repr__(self):
        inner = ", ".join(f"{lid}:{list(level)}" for lid, level in enumerate(self.levels))
        return f"GradedIndex({inner})"

    def level_slice(self, pos):
        """Flat slice occupied by the level at list position ``pos``."""
        return slice(self.offsets[pos], self.offsets[pos] + self.sizes[pos])
