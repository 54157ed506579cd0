"""Exception types shared across the library."""


class BeamlabError(Exception):
    """Base class for all library errors."""


class InvalidArgument(BeamlabError, ValueError):
    """An argument lies outside the domain the function accepts."""


# -- geometry ---------------------------------------------------------------

class NonUnitSpeed(BeamlabError):
    """Initial direction is not g-normalized."""


class TrappedGeodesic(BeamlabError):
    """Arc length exceeded the configured cap without a boundary exit."""


class DegenerateBasis(BeamlabError):
    """Input frame vectors are linearly dependent."""


class OutsideTube(BeamlabError):
    """Point farther than the tube radius from the reference geodesic."""


# -- jacobi / transforms ----------------------------------------------------

class SingularAnchor(BeamlabError):
    """Anchor matrix for an admissible-weight family is degenerate."""


class ConjugatePointHit(BeamlabError):
    """det Y vanishes on the sampled interval."""


class BranchAmbiguity(BeamlabError):
    """|det Y| drops below threshold; no continuous square-root branch."""


class NoConvergence(BeamlabError):
    """Successive extrapolants differ by more than the configured tolerance."""


class NonRealInput(BeamlabError):
    """Operation requires real-valued input samples."""


class IllConditioned(BeamlabError):
    """Moment system condition number exceeds the configured cap."""


class NonMonotone(BeamlabError):
    """Ratio of Jacobi solutions fails strict monotonicity numerically."""


# -- cylinder ---------------------------------------------------------------

class ZeroSymbol(BeamlabError):
    """S_a requested with a = 0."""


class ResonantLambda(BeamlabError):
    """lambda^2 too close to a retained transversal eigenvalue."""


class NeumannDivergence(BeamlabError):
    """Perturbation correction loop failed to contract."""


# -- cgo --------------------------------------------------------------------

class UnsupportedOrder(BeamlabError):
    """Requested expansion order outside the implemented range."""


# -- pde --------------------------------------------------------------------

class DirichletEigenvalue(BeamlabError):
    """Factorization detected a (near-)singular Schroedinger operator."""


class SmallDataViolated(BeamlabError):
    """Boundary datum exceeds the small-data radius."""


class ContractionFailure(BeamlabError):
    """Fixed-point iteration for the semilinear problem diverged."""


# -- recon / cli ------------------------------------------------------------

class ModeMismatch(BeamlabError):
    """Requested task parameters exceed what the chosen mode can resolve."""


class ConfigInvalid(BeamlabError):
    """Experiment configuration failed validation."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
