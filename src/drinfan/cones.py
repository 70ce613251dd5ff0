"""Exact rational polyhedral cones and fans.

Cones are represented both by generators (extreme rays plus a lineality
basis; V) and by a halfspace description (inequalities plus equations; H).
The two are converted by the incremental double description method of
Motzkin et al. (see Fukuda & Prodon, "Double description method
revisited", 1996), run fraction-free: every input vector is first scaled
to a primitive integer vector, every new line or ray is an integer
combination of two old ones divided by the gcd of its entries, and all
arithmetic is on plain ints.  Adjacency of rays is decided combinatorially
from their tight sets, in the one step that joins the adjacent +/- pairs
across a hyperplane (``_join_adjacent``); ``xi._cut`` runs that step once
to cut a pointed, full-dimensional cone, with no conversion.  Canonical
forms use primitive integer vectors, so
cone equality and hashing are exact; rational input is accepted and
scaled on entry.  The canonical form is fraction-free too: the lines are
brought to reduced row echelon form by the one Gauss-Jordan loop of
``linalg``, run on the same integer combinations, and the rays are reduced
modulo them (``_canonical``).

V and H are each computed on first use and then kept, so a cone pays only
for what is read: ``rays``, ``lines``, ``key``, equality and hashing read
V; ``ineqs``, ``eqs``, ``contains`` and ``faces`` read H; ``dim`` reads H
if it is known and otherwise the rank of the generators at hand, so the
dimension of a face converts nothing.  A cone given by
inequalities gets V by one conversion and H, if asked, from V.  A cone
given by generators gets H by one conversion (H is the V-rep of the dual
cone) and V, if asked, from H, which makes it canonical.  A cone whose
canonical V (and H) is already known, a face or a half of a cut, is born
with it by ``Cone._born``, unconverted and unchecked.

A cone's face lattice is computed on first read from the incidence of its
rays and facet inequalities: the ray sets of the faces are the
intersections, as bitmasks, of the ray sets of the facets (see
``Cone.faces``), so no face is built by conversion and ``is_face_of`` is
a key lookup.  A face is an ordinary cone born with its canonical V, so
its key converts nothing and its own lattice, if read, costs at most its
H.  A fan tracks its maximal cones as cones are added (``Fan.add``, which
tests containment both ways); the chambers of a subdivision and the cones
a stellar step keeps, none inside another, join without those tests
(``Fan._join``).  ``Fan.validate`` reads only the lattices of the maximal
cones.

Fans are validated over their maximal cones: face closure, every cone a
face of a maximal cone, the pairwise intersection condition on maximal
cones, and support coverage by the wall condition (see ``Fan.validate``).
A pair of maximal cones is proved to meet in a common face by a separating
form evaluated on ray-facet incidence bitmasks (``_unseparated_pairs``);
only a pair it leaves open is intersected by double description.
Also provided: common refinements, Hilbert bases of dual
monoids, and regularity testing with refinement by determinant-descent
stellar subdivisions.  The last two rest on one lattice routine: the
integer points of the half-open fundamental parallelepiped of independent
rays, enumerated exactly from the Smith normal form of the ray matrix
(``_parallelepiped_points``; Cohen, "A Course in Computational Algebraic
Number Theory", 2.4).  A dual-monoid Hilbert basis is taken from the rays
and those points over a triangulation of the dual cone, projected modulo
its lineality space (Bruns & Gubeladze, "Polytopes, Rings, and K-Theory",
ch. 2), and reduced greedily by a positive functional.  The projected
monoid is saturated (all lattice points of its cone), so a candidate x is
reducible iff x - h lies in the cone for a basis element h found before
it (Bruns & Ichim, "Normaliz: algorithms for affine monoids and rational
cones", J. Algebra 324, 2010); that test compares the integer values of x
and h on the cone's equations and inequalities, computed once per
candidate.  A descent point is one of the
parallelepiped points of a non-regular cone.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, prod
from operator import le, mul
from typing import Iterable, Iterator, Sequence

from .linalg import (_combine, _gauss_jordan, det, primitive,
                     quotient_lattice_maps, smith_normal_form)

__all__ = ["Cone", "Fan", "RefinementError", "dual_monoid_hilbert_basis"]

_HILBERT_DIM_CAP = 6
_REFINE_DIM_CAP = 4
_BOX_CAP = 10_000_000


class RefinementError(RuntimeError):
    """A regular refinement stopped at its step cap."""


def _neg(v):
    return tuple(-x for x in v)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _idot(a, b):
    """Dot product without conversions (ints, or ints and Fractions)."""
    return sum(map(mul, a, b))


def _exact(v) -> tuple:
    """v with every entry an int or a Fraction."""
    return tuple(x if type(x) is int else Fraction(x) for x in v)


def _dd_convert(ineqs: Sequence[Sequence], eqs: Sequence[Sequence], n: int
                ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Double description: halfspace description -> (rays, lineality basis).

    Fraction-free: constraints are scaled to primitive integer vectors, a
    line is eliminated as ``v0*l - (a.l)*l0`` and a ray pair is combined as
    ``vp*m - vm*p``, each result divided by its gcd.  Every vector stays a
    positive multiple of the one exact rational elimination would give, so
    the cone described is the same.  The output rays and lines are
    primitive integer vectors (rays not yet reduced modulo the lines).
    """
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays: list[tuple[int, ...]] = []
    constraints: list[tuple[int, ...]] = []
    for e in eqs:
        if any(e):
            e = primitive(e)
            constraints += (e, _neg(e))
    for a in ineqs:
        if any(a):  # 0 >= 0 holds everywhere
            constraints.append(primitive(a))

    processed: list[tuple[int, ...]] = []
    for a in constraints:
        hit = next((l for l in lines if _idot(a, l)), None)
        if hit is not None:
            v0 = _idot(a, hit)
            l0 = hit if v0 > 0 else _neg(hit)
            v0 = abs(v0)
            lines = [_combine(v0, l, -_idot(a, l), l0)
                     for l in lines if l is not hit]
            lines = [l for l in lines if any(l)]
            rays = [_combine(v0, r, -_idot(a, r), l0) for r in rays]
            rays.append(l0)
            processed.append(a)
            continue
        vals = [_idot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(a)
            continue
        # tight sets w.r.t. already processed constraints, as bitmasks
        tight = [sum(1 << i for i, c in enumerate(processed) if not _idot(c, r))
                 for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        processed.append(a)
        # all rays are primitive, so collinear rays are equal tuples
        rays = list(dict.fromkeys(keep + _join_adjacent(rays, vals, tight)))
    return rays, lines


def _join_adjacent(rays: Sequence[tuple[int, ...]], vals: Sequence[int],
                   tight: Sequence[int]) -> list[tuple[int, ...]]:
    """The new rays of one double-description step by a constraint a:
    for each ray p with a.p > 0 and ray m with a.m < 0 that are adjacent,
    the primitive ray ``a.p m - a.m p`` on a = 0 (``vals`` holds a.r and
    ``tight`` the tight set of r over the constraints so far, a bitmask,
    for each ray r).

    The rays must be the extreme rays of the cone those constraints
    define, modulo its lines.  Adjacency is then combinatorial: p and m
    span a 2-face iff no third ray is tight wherever both are (the
    combinatorial adjacency test of Fukuda & Prodon, 1996)."""
    new_rays: list[tuple[int, ...]] = []
    minus = [i for i, v in enumerate(vals) if v < 0]
    for ip, vp in enumerate(vals):
        if vp <= 0:
            continue
        for im in minus:
            T = tight[ip] & tight[im]
            if any(tight[io] & T == T for io in range(len(rays))
                   if io != ip and io != im):
                continue  # not adjacent
            comb = _combine(vp, rays[im], -vals[im], rays[ip])
            if any(comb):
                new_rays.append(comb)
    return new_rays


def _canonical(rays: Sequence[Sequence[int]], lines: Sequence[Sequence[int]]
               ) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Canonical (rays, lines) of the cone generated by rays and lines.

    The inputs are primitive integer vectors, as ``_dd_convert`` returns
    them.  Lines become the primitive rows of the reduced row echelon form
    of their span, pivots positive, sorted; each ray is reduced modulo that
    span (its pivot coordinates zeroed) and stays primitive.  Rays are
    sorted and distinct.

    The echelon form is ``linalg._gauss_jordan``, whose step is ``_combine``,
    so every row is a primitive nonzero multiple of the rational one; its
    pivot made positive, it is the vector exact elimination would give.  A
    ray reduced by ``_combine`` against a positive pivot stays a positive
    multiple of its rational reduction.
    """
    rows = list(lines)
    pivots = _gauss_jordan(rows) if rows else []
    rows = [row if row[pc] > 0 else _neg(row)
            for row, pc in zip(rows, pivots)]
    crays = set()
    for r in rays:
        v = r
        for row, pc in zip(rows, pivots):
            if v[pc]:
                v = _combine(row[pc], v, -v[pc], row)
        if any(v):
            crays.add(v)
        elif any(r):
            raise ValueError("ray lies in the lineality space")
    return tuple(sorted(crays)), tuple(sorted(rows))


class Cone:
    """Rational polyhedral cone with exact dual representations."""

    def __init__(self, n: int, rays=None, lines=None, ineqs=None, eqs=None):
        if (rays is None) == (ineqs is None):
            raise ValueError("construct from exactly one of rays / ineqs")
        self.n = n
        if rays is not None:
            self._gen_rays = self._vectors(rays, "ray")
            self._gen_lines = self._vectors(lines, "line")
            self._in_ineqs = self._in_eqs = None
        else:
            self._gen_rays = self._gen_lines = None
            self._in_ineqs = self._vectors(ineqs, "inequality")
            self._in_eqs = self._vectors(eqs, "equation")
        self._V: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None = None
        self._H: tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]] | None = None
        # (proper faces, facets in ineqs() order), built by faces()
        self._faces_cache: tuple[list["Cone"], list["Cone"]] | None = None

    @classmethod
    def _born(cls, n: int, V, H=None) -> "Cone":
        """A cone from its canonical V = (rays, lines) and, if known, its
        canonical H = (ineqs, eqs), as faces and the halves of a cut know
        them: nothing is converted, re-tupled or checked."""
        c = object.__new__(cls)
        c.n = n
        c._gen_rays = c._gen_lines = c._in_ineqs = c._in_eqs = None
        c._V, c._H = V, H
        c._faces_cache = None
        return c

    def _vectors(self, vs, what: str) -> list[tuple]:
        out = [tuple(v) for v in (vs or ())]
        for v in out:
            if len(v) != self.n:
                raise ValueError(f"{what} {list(v)} has length {len(v)}, "
                                 f"expected {self.n}")
        return out

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rays(rays: Iterable[Sequence], n: int | None = None,
                  lines: Iterable[Sequence] = ()) -> "Cone":
        rays = [tuple(r) for r in rays]
        lines = [tuple(l) for l in lines]
        if n is None:
            if not rays and not lines:
                raise ValueError("ambient dimension required for trivial cone")
            n = len((rays + lines)[0])
        return Cone(n, rays=rays, lines=lines)

    @staticmethod
    def from_ineqs(ineqs: Iterable[Sequence], n: int | None = None,
                   eqs: Iterable[Sequence] = ()) -> "Cone":
        ineqs = [tuple(a) for a in ineqs]
        eqs = [tuple(e) for e in eqs]
        if n is None:
            if not ineqs and not eqs:
                raise ValueError("ambient dimension required for full space")
            n = len((ineqs + eqs)[0])
        return Cone(n, ineqs=ineqs, eqs=eqs)

    # -- representation -----------------------------------------------------

    def _v(self):
        """The canonical (rays, lines), converted on first use: from the
        given inequalities, or from H for a cone given by generators."""
        if self._V is None:
            if self._in_ineqs is not None:
                self._V = _canonical(*_dd_convert(self._in_ineqs, self._in_eqs,
                                                  self.n))
            else:
                self._V = _canonical(*_dd_convert(*self._h(), self.n))
        return self._V

    def _h(self):
        """The canonical (ineqs, eqs), converted on first use: from the
        given generators (H is the V-rep of the dual cone), or from V."""
        if self._H is None:
            gens = ((self._gen_rays, self._gen_lines)
                    if self._gen_rays is not None else self._v())
            self._H = _canonical(*_dd_convert(*gens, self.n))
        return self._H

    def rays(self) -> tuple[tuple[int, ...], ...]:
        return self._v()[0]

    def lines(self) -> tuple[tuple[int, ...], ...]:
        return self._v()[1]

    def ineqs(self) -> tuple[tuple[int, ...], ...]:
        return self._h()[0]

    def eqs(self) -> tuple[tuple[int, ...], ...]:
        return self._h()[1]

    def key(self):
        return self._v()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cone) and self.n == other.n and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.n, self.key()))

    def __repr__(self) -> str:
        return f"Cone(rays={list(self.rays())}, lines={list(self.lines())})"

    # -- queries --------------------------------------------------------------

    def dim(self) -> int:
        """The dimension of the span: n minus the number of equations if H
        is known, else the rank of the generators at hand (the given ones,
        or V), so a face, born with its V only, converts nothing."""
        if self._H is not None:
            return self.n - len(self._H[1])
        rays, lines = (self._v() if self._gen_rays is None
                       else (self._gen_rays, self._gen_lines))
        rows = [primitive(v) for v in (*rays, *lines) if any(v)]
        return len(_gauss_jordan(rows)) if rows else 0

    def is_pointed(self) -> bool:
        return not self.lines()

    def contains(self, x: Sequence) -> bool:
        if len(x) != self.n:
            raise ValueError(f"point {list(x)} has length {len(x)}, "
                             f"expected {self.n}")
        x = _exact(x)
        return (all(_idot(e, x) == 0 for e in self.eqs())
                and all(_idot(a, x) >= 0 for a in self.ineqs()))

    def contains_cone(self, other: "Cone") -> bool:
        """other <= self, tested on other's integer rays and lines: every
        generator satisfies the equations, every ray the inequalities,
        and every line the inequalities with equality."""
        if other.n != self.n:
            raise ValueError(f"cone in dimension {other.n}, expected "
                             f"{self.n}")
        eqs, ineqs = self.eqs(), self.ineqs()
        rays, lines = other.rays(), other.lines()
        return (all(_idot(a, r) >= 0 for r in rays for a in ineqs)
                and all(not _idot(e, r) for r in rays for e in eqs)
                and all(not _idot(c, l) for l in lines for c in ineqs + eqs))

    def dual(self) -> "Cone":
        return Cone.from_ineqs(self.rays(), n=self.n, eqs=self.lines())

    def intersect(self, other: "Cone") -> "Cone":
        return Cone.from_ineqs(list(self.ineqs()) + list(other.ineqs()), n=self.n,
                               eqs=list(self.eqs()) + list(other.eqs()))

    # -- faces ------------------------------------------------------------------

    def facets(self) -> list["Cone"]:
        """The facets, one per inequality, in ``ineqs()`` order: the faces
        of the facet masks that ``faces`` computed, the same objects."""
        self.faces()
        return list(self._faces_cache[1])

    def faces(self) -> list["Cone"]:
        """All faces: self first, then the proper faces by ray count.

        A face is determined by the rays it contains, and its ray set is
        an intersection of the ray sets of facets (Kaibel & Pfetsch,
        "Computing the face lattice of a polytope from its vertex-facet
        incidences", 2002); these are closed under ``&`` as bitmasks.  A
        face's rays are a subsequence of self's rays, which are sorted,
        primitive and reduced modulo the same lines, so the face's V-rep
        is canonical as it stands, and the face is born with it
        (``_born``), unchecked.  A face is an ordinary cone: its own
        faces come from the same closure over its own facets the first
        time they are read.  Self is not cached in its own list, and no
        face refers back to self, so the references form no cycle.
        """
        if self._faces_cache is None:
            rays, lines = self.rays(), self.lines()
            facet_masks = [sum(1 << i for i, r in enumerate(rays)
                               if not _idot(a, r)) for a in self.ineqs()]
            full = (1 << len(rays)) - 1
            masks, seen = [full], {full}
            for m in masks:  # grows while read: the closure under &
                for f in facet_masks:
                    if m & f not in seen:
                        seen.add(m & f)
                        masks.append(m & f)
            built: dict[int, Cone] = {}
            for m in sorted(masks, key=int.bit_count)[:-1]:
                face_rays = tuple(r for i, r in enumerate(rays) if m >> i & 1)
                built[m] = Cone._born(self.n, (face_rays, lines))
            self._faces_cache = (list(built.values()),
                                 [built[m] for m in facet_masks])
        return [self] + self._faces_cache[0]

    def is_face_of(self, other: "Cone") -> bool:
        key = self.key()
        return self.n == other.n and any(f.key() == key for f in other.faces())

    # -- lattice properties -------------------------------------------------------

    def is_simplicial(self) -> bool:
        return self.is_pointed() and len(self.rays()) == self.dim()

    def smooth_index(self) -> int | None:
        """gcd of maximal minors of the ray matrix for a simplicial cone.

        1 means the cone is regular (unimodular); None if not simplicial.
        """
        if not self.is_simplicial():
            return None
        rays = [list(r) for r in self.rays()]
        m = len(rays)
        if m == 0:
            return 1
        g = 0
        for cols in itertools.combinations(range(self.n), m):
            sub = [[row[c] for c in cols] for row in rays]
            g = gcd(g, abs(det(sub)))
        return g

    def is_regular(self) -> bool:
        idx = self.smooth_index()
        return idx == 1


def _unseparated_pairs(cones: Sequence[Cone]
                       ) -> Iterator[tuple[Cone, Cone]]:
    """The pairs of cones, in ``combinations`` order, that the separating
    form of ``Fan.validate`` does not prove to meet in a common face.

    The form a is never built.  On each of c1 and c2 all terms of a have
    one sign, so a.r = 0 at a ray r of either cone iff every term vanishes
    at r.  So each facet normal gets two bitmasks over the distinct rays
    of all the cones, the rays where it is > 0 and where it is 0.  A
    normal of c1 is a term iff its first mask misses c2's rays (and
    likewise for c2), and the rays where a vanishes are the intersection
    of the terms' second masks; the ray sets are compared as masks, since
    canonical rays are equal iff their tuples are.

    A yielded pair is only not proved: the cones may overlap, or a fails
    to show that they do not, or a cone has lineality (its rays are
    reduced modulo its own lines, so ray sets do not compare).
    """
    index: dict[tuple[int, ...], int] = {}
    for c in cones:
        for r in c.rays():
            index.setdefault(r, len(index))
    masks = []  # per cone: (its rays, [(positive, zero) per facet normal])
    for c in cones:
        if c.lines():
            masks.append(None)
            continue
        forms = []
        for u in c.ineqs():
            positive = zero = 0
            for r, bit in index.items():
                v = _idot(u, r)
                if v > 0:
                    positive |= 1 << bit
                elif not v:
                    zero |= 1 << bit
            forms.append((positive, zero))
        masks.append((sum(1 << index[r] for r in c.rays()), forms))
    for (c1, m1), (c2, m2) in itertools.combinations(zip(cones, masks), 2):
        if m1 is None or m2 is None:
            yield c1, c2
            continue
        (own1, forms1), (own2, forms2) = m1, m2
        vanish = -1  # every bit: the zero form vanishes everywhere
        for positive, zero in forms1:
            if not own2 & positive:
                vanish &= zero
        for positive, zero in forms2:
            if not own1 & positive:
                vanish &= zero
        if vanish & own1 != vanish & own2:
            yield c1, c2


class Fan:
    """A finite collection of cones closed under faces."""

    def __init__(self, cones: Iterable[Cone] = ()):
        self.cones: dict = {}
        self._maximal: list[Cone] = []
        for c in cones:
            self.add(c)

    @classmethod
    def _from_chambers(cls, chambers: Iterable[Cone]) -> "Fan":
        """The fan generated by chambers: full-dimensional cones with
        pairwise disjoint interiors, as the pieces of a subdivision are.
        Each chamber is maximal, in the given order, and no containment is
        tested, because none contains another: if c1 <= c2, the interior
        of c1 is a nonempty open set inside c2, hence inside the interior
        of c2, and the interiors would meet.  Nothing here checks the
        premise; ``validate`` does, independently."""
        fan = cls()
        for c in chambers:
            fan._join(c)
        return fan

    def _join(self, cone: Cone) -> None:
        """Add cone, with its faces, as maximal, testing no containment: no
        maximal cone of the fan may lie in cone or hold it."""
        for f in cone.faces():
            self.cones.setdefault(f.key(), f)
        self._maximal.append(cone)

    def add(self, cone: Cone) -> None:
        # a new cone's other new cones are its faces, so only the cone
        # itself can become maximal, and it is tracked in insertion order
        if cone.key() not in self.cones:
            for f in cone.faces():
                self.cones.setdefault(f.key(), f)
            if not any(m.contains_cone(cone) for m in self._maximal):
                self._maximal = [m for m in self._maximal
                                 if not cone.contains_cone(m)]
                self._maximal.append(cone)

    def __len__(self) -> int:
        return len(self.cones)

    def __iter__(self):
        return iter(self.cones.values())

    def __contains__(self, cone: Cone) -> bool:
        return cone.key() in self.cones

    def maximal_cones(self) -> list[Cone]:
        """Cones contained in no other cone of the fan, in the order they
        were added (a fresh list)."""
        return list(self._maximal)

    def validate(self, support: Cone | None = None) -> list[str]:
        """Return a list of violations (empty means the fan is valid).

        Checks, in order: every face of a maximal cone is in the fan; every
        cone is a face of some maximal cone; any two maximal cones meet in
        a common face; and, if a support is given, that the fan is not
        empty, and the wall condition.  Only the face lattices of the
        maximal cones are read, which ``add`` has already built.

        The first two checks hold iff the second does and every face of
        every cone is in the fan, since maximal cones are cones of the fan
        and a face f of a cone c, which the second check makes a face of a
        maximal cone m, is a face of m.  A face of a face is a face: if
        c = m & {u = 0} and f = c & {v = 0}, with u >= 0 on m and v >= 0
        on c, take t so large that v + t u > 0 on the rays of m outside c;
        then v + t u >= 0 on m and f = m & {v + t u = 0}.

        Testing the intersection condition on maximal cones only is sound
        once the second check passes.  Let f1, f2 be faces of maximal
        cones c1, c2 and suppose g = c1 & c2 is a face of both.  Then
        f1 & g is a face of c1 contained in g, hence a face of g, and
        likewise f2 & g; so f1 & f2 = (f1 & g) & (f2 & g) is a face of g,
        hence of c1 and of c2, and being contained in f1 and f2 it is a
        face of each.  Without the second check a cone lying inside a
        maximal cone without being its face (a quadrant plus its diagonal
        ray) would go unreported.

        A pair of maximal cones is first closed by a separating form, which
        is a proof.  For pointed c1 and c2, let a be the sum of the facet
        normals of c1 that are <= 0 on every ray of c2, minus the facet
        normals of c2 that are <= 0 on every ray of c1.  Each term of a is
        >= 0 on c1 and <= 0 on c2, so the hyperplane H = {a = 0} separates
        them, and c1 & c2 = (c1 & H) & (c2 & H).  As a >= 0 on c1, c1 & H
        is the face of c1 generated by its rays r with a.r = 0, and likewise
        c2 & H.  If those two ray sets are equal, c1 & H = c2 & H, so
        c1 & c2 is that cone, a face of both.  This is the separation lemma
        (Cox, Little & Schenck, "Toric Varieties", 2011, Lemma 1.2.13).  It
        is evaluated on incidence bitmasks (``_unseparated_pairs``).  A
        pair it does not close, and every pair with lineality, is decided
        by a double-description ``intersect`` and ``is_face_of``, which
        names the pair when the condition fails.
        """
        maximal = self.maximal_cones()
        faces_of_maximal = {f.key(): m for m in maximal for f in m.faces()}
        problems = [f"missing face of {m!r}"
                    for key, m in faces_of_maximal.items()
                    if key not in self.cones]
        problems += [f"{c!r} is not a face of a maximal cone"
                     for key, c in self.cones.items()
                     if key not in faces_of_maximal]
        for c1, c2 in _unseparated_pairs(maximal):
            i = c1.intersect(c2)
            if not (i.is_face_of(c1) and i.is_face_of(c2)):
                problems.append(f"intersection of {c1!r} and {c2!r} is not a common face")
        if support is not None:
            problems.extend(self._check_support(support, maximal))
        return problems

    def _check_support(self, support: Cone, maximal: list[Cone]) -> list[str]:
        if not maximal:  # it covers not even the origin
            return ["empty fan does not cover the support"]
        problems: list[str] = []
        sdim = support.dim()
        for c in maximal:
            if not support.contains_cone(c):
                problems.append(f"cone {c!r} not contained in the support")
            if c.dim() != sdim:
                problems.append(f"maximal cone {c!r} has dim {c.dim()} != {sdim}")
        if problems:
            return problems
        # wall condition: each facet of a maximal cone is either on the
        # boundary of the support or shared with exactly one other maximal cone
        owners: dict = {}
        for i, c in enumerate(maximal):
            for f in c.facets():
                owners.setdefault(f.key(), set()).add(i)
        adjacency = {i: set() for i in range(len(maximal))}
        for i, c in enumerate(maximal):
            for f in c.facets():
                on_boundary = any(
                    all(_idot(a, r) == 0 for r in f.rays())
                    and all(_idot(a, l) == 0 for l in f.lines())
                    for a in support.ineqs())
                if on_boundary:
                    continue
                sharers = owners[f.key()] - {i}
                if len(sharers) != 1:
                    problems.append(
                        f"interior wall {f!r} shared by {len(sharers)} other cones")
                else:
                    j, = sharers
                    adjacency[i].add(j)
                    adjacency[j].add(i)
        if maximal and not problems:
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) != len(maximal):
                problems.append("dual graph of maximal cones is disconnected")
        return problems

    def join(self, other: "Fan") -> "Fan":
        """Common refinement: all pairwise intersections of cones.

        Only maximal cones are intersected.  Every cone of a fan is a face
        of a maximal cone, and if s' and t' are faces of s and t, then
        s' & t' is a face of s & t, which ``add`` inserts with all its
        faces; so the pairs of maximal cones give the same fan.
        """
        out = Fan()
        for c1 in self.maximal_cones():
            for c2 in other.maximal_cones():
                out.add(c1.intersect(c2))
        return out

    def stellar_subdivide(self, w: Sequence[int]) -> "Fan":
        """Pull at w: each maximal cone c holding w becomes the cells w * f,
        f a facet of c missing w.  Only a cell goes through ``add`` (an
        invalid fan's cells can nest).  A kept cone joins as it is: maximal
        cones never nest, it lacks w, which every cell holds, and every
        cell lies in its parent, a maximal cone."""
        w = tuple(int(x) for x in w)
        out = Fan()
        for c in self.maximal_cones():
            if c.contains(w):
                # w in c lies on the facet a = 0 iff a.w = 0
                for a, f in zip(c.ineqs(), c.facets()):
                    if _idot(a, w):
                        out.add(Cone.from_rays(list(f.rays()) + [w], n=c.n,
                                               lines=f.lines()))
            else:
                out._join(c)
        return out

    def is_regular(self) -> bool:
        return all(c.is_regular() for c in self.maximal_cones()
                   if c.is_pointed())

    def regular_refinement(self) -> "Fan":
        """Refine until every cone is regular (dim <= 4 supported).

        First every cone is made simplicial: a non-simplicial maximal cone
        is pulled at its first ray w that at least two facets miss.  Such
        a ray exists: if each ray were missed by one facet only, that
        facet would hold every other ray, so the ray would lie outside
        their span, the rays would be independent, and the cone would be
        simplicial.  In a fan every cone containing the ray w has w as a
        ray, and the stellar step replaces each such cone c by the cones
        w * f, f a facet of c missing w.  If w is an apex of c (one facet
        misses it), that is c itself.  Otherwise every such f also misses
        a ray of c other than w (two facets missing w cannot hold the same
        other rays), so w * f has fewer rays than c.  So the multiset of
        ray counts of the maximal cones falls (in the multiset order) at
        every step, and this phase ends.  The first ray is taken whenever
        it is no apex, so the result is that of pulling at the first ray
        wherever that rule never meets an apex; at an apex it leaves the
        cone as it is, and on a single pyramid it would repeat forever.
        Then every non-regular cone is subdivided at a point of its
        half-open parallelepiped (_descent_point), which keeps every cone
        simplicial and lowers the multiset of their indices, so the
        refinement terminates (Cox, Little & Schenck, Toric Varieties,
        Thm. 11.1.9).  The step cap is a guard only: RefinementError if
        it is reached.
        """
        fan = self
        for c in fan.maximal_cones():
            if c.dim() > _REFINE_DIM_CAP:
                raise ValueError(
                    f"regular refinement supported up to dim {_REFINE_DIM_CAP}")
            if not c.is_pointed():
                raise ValueError("regular refinement requires pointed cones")
        for _ in range(10000):
            bad = next((c for c in fan.maximal_cones() if not c.is_simplicial()),
                       None)
            if bad is not None:
                fan = fan.stellar_subdivide(next(
                    r for r in bad.rays()
                    if sum(1 for a in bad.ineqs() if _idot(a, r)) >= 2))
                continue
            bad = next((c for c in fan.maximal_cones() if not c.is_regular()),
                       None)
            if bad is None:
                return fan
            w = _descent_point(bad)
            fan = fan.stellar_subdivide(w)
        raise RefinementError("regular refinement did not terminate")


def _descent_point(cone: Cone) -> tuple[int, ...]:
    """A nonzero lattice point in the half-open parallelepiped of a
    non-regular simplicial cone (guarantees determinant descent)."""
    candidates = [p for p in _parallelepiped_points(cone.rays()) if any(p)]
    if not candidates:
        raise AssertionError("non-regular cone without interior lattice point")
    # prefer points with small coefficient sum for fast descent
    def keyf(p):
        return (sum(abs(x) for x in p), p)
    return primitive(min(candidates, key=keyf))


def _parallelepiped_points(rays: Sequence[Sequence[int]]
                           ) -> list[tuple[int, ...]]:
    """Integer points sum t_i r_i, 0 <= t_i < 1, of independent rays r_i.

    There is one point per class of (span(R) & Z^n) / Z^m R, where R is
    the m x n ray matrix.  With U R V = S its Smith form and d the
    diagonal of S, the first m rows of V^-1 are a basis of span(R) & Z^n,
    and the point c of that basis has ray coordinates t = c D^-1 U.  So c
    runs over prod [0, d_i) and the point is (t - floor(t)) R, computed
    over ints with t scaled by l = lcm(d).  The count prod d_i is checked
    against the cap before anything is enumerated.
    """
    m, n = len(rays), len(rays[0])
    U, S, _ = smith_normal_form(rays)
    d = [S[i][i] for i in range(min(m, n))]
    if m > n or 0 in d:
        raise ValueError("rays must be linearly independent")
    count = prod(d)
    if count > _BOX_CAP:
        raise ValueError(f"parallelepiped has {count} lattice points, "
                         f"more than {_BOX_CAP}")
    l = lcm(*d)
    steps = [[l // di * u for u in row] for di, row in zip(d, U)]
    out = []
    for c in itertools.product(*map(range, d)):
        t = [sum(ci * row[j] for ci, row in zip(c, steps)) % l
             for j in range(m)]
        out.append(tuple(sum(tj * r[k] for tj, r in zip(t, rays)) // l
                         for k in range(n)))
    return out


def _triangulate(cone: Cone, memo: dict | None = None
                 ) -> list[list[tuple[int, ...]]]:
    """Triangulate a pointed cone into simplicial ray subsets: the first
    ray joined to the triangulations of the facets that miss it.  A face
    reached through several facets is a new object each time (each cone
    builds its own faces), so within one call its triangulation is kept
    by key in memo, and its H is converted once."""
    if memo is None:
        memo = {}
    key = cone.key()
    if key not in memo:
        rays = list(cone.rays())
        if len(rays) == cone.dim():
            memo[key] = [rays]
        else:
            r0 = rays[0]
            memo[key] = [simplex + [r0]
                         for a, f in zip(cone.ineqs(), cone.facets())
                         if _idot(a, r0)  # r0 is not on the facet a = 0
                         for simplex in _triangulate(f, memo)]
    return memo[key]


def dual_monoid_hilbert_basis(cone: Cone) -> dict:
    """Hilbert basis of {y in Z^n : y . x >= 0 for all x in cone}.

    Returns a dict with 'generators' (minimal generating set of the pointed
    part, lifted to Z^n), 'lineality' (basis vectors g with both g and -g in
    the monoid), and 'all' (generators plus the +/- lineality pairs).
    """
    n = cone.n
    if n > _HILBERT_DIM_CAP:
        raise ValueError(f"Hilbert basis supported up to ambient dim {_HILBERT_DIM_CAP}")
    dual = cone.dual()
    dlines = [list(l) for l in dual.lines()]
    k, project, lift, sat_basis = quotient_lattice_maps(dlines, n)
    prays = [project(r) for r in dual.rays()]
    if not prays:
        return {"generators": [], "lineality": [tuple(b) for b in sat_basis],
                "all": [tuple(b) for b in sat_basis]
                        + [_neg(b) for b in sat_basis]}
    pcone = Cone.from_rays(prays, n=k)
    # certificates raise explicitly, so that python -O keeps them
    if not pcone.is_pointed():
        raise AssertionError("projected dual cone is not pointed")
    # a Hilbert basis lies among the rays and the half-open parallelepiped
    # points of any triangulation (Bruns & Gubeladze, ch. 2)
    candidates = set(pcone.rays())
    for simplex in _triangulate(pcone):
        candidates.update(p for p in _parallelepiped_points(simplex) if any(p))
    # strictly positive functional on the pointed cone
    ell = [sum(col) for col in zip(*pcone.ineqs())]
    ordered = sorted(candidates, key=lambda x: (_idot(ell, x), x))
    # the monoid is pcone & Z^k, so x is reducible iff x - h lies in pcone
    # for some basis element h of smaller ell, all of which come earlier;
    # x - h lies in pcone iff x and h agree on every equation and x is at
    # least h on every inequality
    eqs, ineqs = pcone.eqs(), pcone.ineqs()
    basis: list[tuple[int, ...]] = []
    basis_values: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for x in ordered:
        ex = tuple(_idot(e, x) for e in eqs)
        ix = tuple(_idot(a, x) for a in ineqs)
        if not any(eh == ex and all(map(le, ih, ix))
                   for eh, ih in basis_values):
            basis.append(x)
            basis_values.append((ex, ix))
    # removal certification, by the same criterion over all pairs
    for g, h in itertools.permutations(basis, 2):
        if pcone.contains(_sub(g, h)):
            raise AssertionError(
                "Hilbert basis element generated by the others")
    gens = [lift(b) for b in basis]
    lin = [tuple(b) for b in sat_basis]
    return {"generators": gens, "lineality": lin,
            "all": gens + lin + [_neg(b) for b in lin]}
