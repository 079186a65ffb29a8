"""Exact computation with Serre ideal subsets of finite positive-basis
rings: ideal lattices, prime / completely prime / semiprime spectra, the
two spectral topologies, block-ring classification, and a q-twisted
monomial model of quantum affine space."""

from .coefficients import (INT, LAURENT, Coefficient, CoefficientError,
                           CoefficientSyntaxError, parse_coefficient)
from .zring import (LEFT, RIGHT, TWO_SIDED, RingError, RingValidationError,
                    UnknownLabel, ZPlusRing, build_ring, labels_from_mask,
                    mask_from_labels)
from .ideals import (BASIS_GUARD, BasisTooLarge, ImproperIdeal, NotAnIdeal,
                     allow_large, enumerate_serre_ideals, is_serre_ideal,
                     pairs_inside, product_support, quotient_ring,
                     serre_closure)
from .spectrum import (DEFINITIONAL, FAST, NoPrimeOver, SpectrumReport,
                       chain_product_support, is_completely_prime,
                       is_semiprime, is_serre_prime, minimal_primes_over,
                       serre_spec)
from .topology import (BALMER, ZARISKI, ClosedSetFamily, build_topology,
                       closed_set, specialization_edges, to_dot)
from .twocat import (BlockRingView, MissingBlocks, block_view,
                     classify_completely_primes, corner_ring)
from .monomial import (FullFace, MonoidIdeal, MonomialRing,
                       build_monoid_ideal, face_quotient, monoid_ideal_is_prime,
                       monoid_membership, monomial_label, truncate_to_ring)
from .io import RingFileError, parse_ring_file, resolve_ring_arg, \
    serialize_ring
from .gallery import gallery_expected, gallery_names, load_gallery

__version__ = "0.1.0"
