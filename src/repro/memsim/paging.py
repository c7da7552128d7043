"""Virtual-to-physical page placement policies.

Physically indexed caches (L2/L3) derive their set index from the
*physical* address, so the OS page-placement policy decides which cache
sets a contiguous virtual array can use.  Servet's probabilistic cache
size algorithm exists precisely because Linux places pages (from the
cache's perspective) randomly; this module implements that policy plus
the two alternatives the paper discusses:

- :class:`RandomPaging` — uniformly random distinct physical pages
  (Linux-like; produces the binomial conflict statistics of Fig. 3).
- :class:`ColoredPaging` — physical page color equals virtual page
  color (Solaris-style page coloring; makes physically indexed caches
  behave like virtually indexed ones, the "single array size peak" case
  of Fig. 4).
- :class:`ContiguousPaging` — physically contiguous allocation (the
  superpage trick of Yotov et al. that the paper criticizes as
  non-portable).
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..units import is_power_of_two


class PagePolicy(abc.ABC):
    """Strategy mapping virtual page numbers to physical page numbers."""

    #: True when :meth:`place` is guaranteed (by construction, not by
    #: luck) to return distinct physical pages.  The built-in policies
    #: all qualify, so :class:`AddressSpace` skips its duplicate-frame
    #: check for them; user-supplied policies default to False and stay
    #: checked.
    guarantees_distinct_frames: bool = False

    #: Total number of physical pages available for placement.
    def __init__(self, physical_pages: int = 1 << 20) -> None:
        if physical_pages <= 0:
            raise ConfigurationError("physical_pages must be positive")
        self.physical_pages = physical_pages

    @abc.abstractmethod
    def place(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        """Physical page numbers for virtual pages ``0..n_pages-1``.

        The result must contain ``n_pages`` *distinct* physical pages
        (an OS never double-maps a private anonymous region).
        """

    def cache_token(self) -> tuple | None:
        """Hashable value identity for placement caching, or None.

        Two policies with equal tokens must produce identical
        placements from identical RNG streams.  ``None`` (the default
        for user-defined policies) opts out of the traversal outcome
        cache — a custom policy may be stateful, so memoizing its
        output would be unsound.
        """
        return None

    def _check(self, n_pages: int) -> None:
        if n_pages <= 0:
            raise SimulationError("an allocation needs at least one page")
        if n_pages > self.physical_pages:
            raise SimulationError(
                f"cannot place {n_pages} pages in a machine with "
                f"{self.physical_pages} physical pages"
            )


class RandomPaging(PagePolicy):
    """Uniformly random distinct physical pages (no page coloring)."""

    guarantees_distinct_frames = True

    def place(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        self._check(n_pages)
        # Floyd-like sampling via choice without replacement; for the
        # page counts used here (<= a few thousand out of ~1M) this is
        # both uniform and fast.
        return rng.choice(self.physical_pages, size=n_pages, replace=False)

    def cache_token(self) -> tuple:
        return ("random", self.physical_pages)


class ColoredPaging(PagePolicy):
    """Page coloring: physical color == virtual color.

    ``n_colors`` is the number of page colors the OS maintains (in
    reality derived from the largest cache).  Within a color, page
    frames are chosen randomly; across colors, the virtual color is
    preserved, which keeps a contiguous virtual array conflict-free in a
    physically indexed cache of at most ``n_colors`` page sets per way.
    """

    guarantees_distinct_frames = True

    def __init__(self, n_colors: int, physical_pages: int = 1 << 20) -> None:
        super().__init__(physical_pages)
        if n_colors <= 0 or physical_pages % n_colors != 0:
            raise ConfigurationError(
                f"n_colors={n_colors} must be positive and divide physical_pages"
            )
        self.n_colors = n_colors

    def cache_token(self) -> tuple:
        return ("colored", self.n_colors, self.physical_pages)

    def place(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        self._check(n_pages)
        frames_per_color = self.physical_pages // self.n_colors
        vpages = np.arange(n_pages)
        colors = vpages % self.n_colors
        # Choose a distinct random frame index (within the color) per page.
        needed = int(np.ceil(n_pages / self.n_colors))
        if needed > frames_per_color:
            raise SimulationError("not enough frames of each color")
        out = np.empty(n_pages, dtype=np.int64)
        for color in np.unique(colors):
            mask = colors == color
            frames = rng.choice(frames_per_color, size=int(mask.sum()), replace=False)
            out[mask] = frames * self.n_colors + color
        return out


class ContiguousPaging(PagePolicy):
    """Physically contiguous placement starting at a random base frame."""

    guarantees_distinct_frames = True

    def place(self, n_pages: int, rng: np.random.Generator) -> np.ndarray:
        self._check(n_pages)
        base = int(rng.integers(0, self.physical_pages - n_pages + 1))
        return base + np.arange(n_pages)

    def cache_token(self) -> tuple:
        return ("contiguous", self.physical_pages)


def _has_duplicates(frames: np.ndarray) -> bool:
    """O(n) duplicate test for small non-negative frame vectors.

    ``np.unique`` sorts (and was the single most expensive operation of
    the whole simulator, profiled); a bincount over the frame values
    present answers the same question in one linear pass.  Falls back
    to a set for frame spaces too large to bincount densely.
    """
    if frames.size < 2:
        return False
    lo = int(frames.min())
    hi = int(frames.max())
    if hi - lo + 1 <= max(4 * frames.size, 4096):
        return bool(np.bincount(frames - lo).max() > 1)
    return len(set(frames.tolist())) != frames.size


class AddressSpace:
    """One process's view of memory: page size + placement for an array.

    Translates virtual byte addresses of a single contiguous allocation
    (based at virtual address 0) to physical line numbers.  Every
    traversal builds its own space from its own RNG stream: the fresh
    placement per traversal is what Servet's probabilistic algorithm
    averages over, so spaces are never shared or cached.

    The placement is checked for duplicate frames unless the policy
    cannot produce them by construction
    (:attr:`PagePolicy.guarantees_distinct_frames`, true of the
    built-in policies).
    """

    def __init__(
        self,
        page_size: int,
        policy: PagePolicy,
        array_bytes: int,
        rng: np.random.Generator,
    ) -> None:
        if not is_power_of_two(page_size):
            raise ConfigurationError(f"page size {page_size} not a power of two")
        if array_bytes <= 0:
            raise ConfigurationError("array_bytes must be positive")
        self.page_size = page_size
        self.array_bytes = array_bytes
        n_pages = -(-array_bytes // page_size)  # ceil
        self.page_table = np.asarray(policy.place(n_pages, rng), dtype=np.int64)
        if not policy.guarantees_distinct_frames and _has_duplicates(self.page_table):
            raise SimulationError("page policy produced duplicate physical pages")

    @property
    def n_pages(self) -> int:
        """Number of pages backing the allocation."""
        return len(self.page_table)

    def physical_lines(self, vaddrs: np.ndarray, line_size: int) -> np.ndarray:
        """Physical line numbers for virtual byte addresses ``vaddrs``.

        The line number is the physical address shifted right by
        ``log2(line_size)``, so a line (or sector) larger than a page
        spans several frames.
        """
        if not is_power_of_two(line_size):
            raise ConfigurationError(f"line size {line_size} not a power of two")
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        if vaddrs.size and (vaddrs.min() < 0 or vaddrs.max() >= self.array_bytes):
            raise SimulationError("virtual address outside the allocation")
        page_shift = self.page_size.bit_length() - 1
        paddrs = (self.page_table[vaddrs >> page_shift] << page_shift) | (
            vaddrs & (self.page_size - 1)
        )
        return paddrs >> (line_size.bit_length() - 1)

    def virtual_lines(self, vaddrs: np.ndarray, line_size: int) -> np.ndarray:
        """Virtual line numbers (used by virtually indexed caches)."""
        return np.asarray(vaddrs, dtype=np.int64) // line_size
