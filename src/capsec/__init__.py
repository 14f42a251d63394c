"""Supporting hyperplanes of an inner convex body whose section centroid
touches the inner boundary, located as critical points of a cap-volume
functional on the unit sphere."""

from .bodies import (
    Ball,
    BodyError,
    ConvexBody,
    Ellipsoid,
    HPolytope,
    LpBall,
    UnsupportedRepresentation,
    VPolytope,
    contains_body,
    cube,
    sphere_net,
    unit_ball_volume,
)
from .families import FAMILIES, random_instance
from .functional import (
    DegenerateSectionError,
    FunctionalEval,
    RejectedInstanceError,
    evaluate,
    fd_tangential_gradient,
    validate_instance,
)
from .sections import (
    Hyperplane,
    SectionData,
    SectionMethod,
    cap_volume,
    hyperplane_chart,
    mc_cap_volume,
    mc_section,
    section,
)
from .solver import CriticalPair, SolverConfig, TheoremReport, grid_census, solve
from .specfile import InstanceSpec, SpecError, load_instance_spec, parse_instance_spec

__version__ = "0.1.0"
