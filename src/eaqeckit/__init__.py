"""Exact finite-field coding theory and entanglement-assisted MDS codes.

Layers, bottom to top:

  gf          arithmetic in GF(p^e), canonical moduli and primitive elements
  fmatrix     dense exact matrices: RREF, rank, kernels, entrywise Frobenius
  lincode     linear codes, Galois duals, distance, MDS certificates
  rankmetric  Moore matrices, MRD certification
  eaqec       ebit counts (two routes) and [[n,k,d;c]]_q assembly
  families    the three verified constructions and the published tables
  cli         command-line front end

Matrices and codes hold enc integers and compute with the field's enc-level
operations; Element is the API-boundary type (M[i, j], codewords()).
"""
from .errors import CodingError
from .gf import Element, FieldSpec, field_new
from .fmatrix import FMatrix
from .lincode import (DistanceReport, LinearCode, MdsReport, from_generator,
                      from_parity_check, galois_dual, is_mds, min_distance)
from .rankmetric import (MooreSpec, MrdReport, is_mrd, min_rank_distance_exhaustive,
                         moore_matrix)
from .eaqec import EaqecParams, PairReport, assemble, ebits_product, ebits_stack
from .families import (TABLE1_ROWS, TABLE2_ROWS, FamilyCertificate, GrsSpec,
                       gabidulin_family, grs_extended_family,
                       grs_extended_generator, grs_extended_spec, table1,
                       table2, vandermonde_family)

__version__ = "1.0.0"
