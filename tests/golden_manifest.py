"""Filename -> argv for every pinned CLI report.

tests/test_cli.py compares live output byte-for-byte against the files in
tests/golden/; scripts/regen_goldens.py rewrites them after an intentional
format change.
"""

GOLDEN_COMMANDS = {}

for _name in ("trivial", "zx2-1", "zx2-x", "two-idem", "nilpotent",
              "m2-block", "m3-block", "ising", "verlinde-sl2-3", "rep-s3",
              "qplane-trunc-2", "mixed-3obj"):
    GOLDEN_COMMANDS[f"spec_{_name}.json"] = ["spec", f"gallery:{_name}"]
    GOLDEN_COMMANDS[f"ideals_{_name}.json"] = ["ideals", f"gallery:{_name}"]

GOLDEN_COMMANDS.update({
    "check_two-idem_prime.json":
        ["check", "gallery:two-idem", "--ideal", "", "--prop", "prime"],
    "check_two-idem_prime_oracle.json":
        ["check", "gallery:two-idem", "--ideal", "", "--prop", "prime",
         "--mode", "oracle"],
    "check_zx2-1_cprime.json":
        ["check", "gallery:zx2-1", "--ideal", "", "--prop", "cprime"],
    "check_nilpotent_semiprime.json":
        ["check", "gallery:nilpotent", "--ideal", "", "--prop", "semiprime"],
    "closure_ising_sigma.json":
        ["closure", "gallery:ising", "--gens", "sigma"],
    "minimal-primes_two-idem.json":
        ["minimal-primes", "gallery:two-idem", "--ideal", ""],
    "minimal-primes_nilpotent.json":
        ["minimal-primes", "gallery:nilpotent", "--ideal", ""],
    "minimal-primes_mixed-3obj.json":
        ["minimal-primes", "gallery:mixed-3obj", "--ideal", ""],
    "minimal-primes_qplane-trunc-2.json":
        ["minimal-primes", "gallery:qplane-trunc-2", "--ideal", ""],
    "quotient_zx2-x.json":
        ["quotient", "gallery:zx2-x", "--ideal", "x"],
    "topology_zx2-x_zariski.json":
        ["topology", "gallery:zx2-x", "--style", "zariski"],
    "topology_zx2-x_balmer.json":
        ["topology", "gallery:zx2-x", "--style", "balmer"],
    "topology_two-idem_zariski.json":
        ["topology", "gallery:two-idem", "--style", "zariski"],
    "topology_two-idem_balmer.json":
        ["topology", "gallery:two-idem", "--style", "balmer"],
    "topology_mixed-3obj_balmer.json":
        ["topology", "gallery:mixed-3obj", "--style", "balmer"],
    "topology_m2-block_balmer.json":
        ["topology", "gallery:m2-block", "--style", "balmer"],
    "twocat_mixed-3obj.json":
        ["twocat", "gallery:mixed-3obj", "--classify-cprimes"],
    "twocat_m2-block.json":
        ["twocat", "gallery:m2-block", "--classify-cprimes"],
    "monomial_prime_false.json":
        ["monomial", "--vars", "2", "--twist", "0,0;1,0", "--prime", "2,0"],
    "monomial_prime_true.json":
        ["monomial", "--vars", "2", "--twist", "0,0;1,0", "--prime", "1,0"],
    "monomial_truncate_2.json":
        ["monomial", "--vars", "2", "--twist", "0,0;1,0", "--truncate", "2"],
    "monomial_face.json":
        ["monomial", "--vars", "3", "--twist", "0,0,0;1,0,0;1,1,0",
         "--face", "1"],
    "oracle_mixed-3obj.json":
        ["oracle", "gallery:mixed-3obj"],
    "oracle_qplane-trunc-2.json":
        ["oracle", "gallery:qplane-trunc-2"],
    "gallery_listing.json":
        ["gallery"],
    "gallery_ising.json":
        ["gallery", "ising"],
    "validate_ising.json":
        ["validate", "gallery:ising"],
    "usage_none.json":
        [],
    "usage_nope.json":
        ["nope"],
    "usage_spec.json":
        ["spec"],
    "usage_ideals_side-x.json":
        ["ideals", "gallery:ising", "--side", "x"],
    "usage_minimal-primes_no-ideal.json":
        ["minimal-primes", "gallery:ising"],
    "usage_monomial_no-action.json":
        ["monomial", "--vars", "2", "--twist", "0,0;1,0"],
    "input_check_ising_sigma.json":
        ["check", "gallery:ising", "--ideal", "sigma", "--prop", "prime"],
    "guard_ideals_qplane-trunc-6.json":
        ["ideals", "gallery:qplane-trunc-6"],
})
