"""Reference data the suite checks against, transcribed once and frozen."""

# The 21 permutations of S5 that are not maximally spherical.
S5_NONSPHERICAL = [
    "24531", "25314", "25341", "34512", "34521", "35412", "35421",
    "42531", "45123", "45213", "45231", "45312", "52314", "52341",
    "53124", "53142", "53412", "53421", "54123", "54213", "54231",
]

# The 18 elements of W(B3) that are not maximally spherical, as words.
B3_NONSPHERICAL = [
    "s2 s3 s1 s2 s3",
    "s3 s2 s3 s1 s2 s3",
    "s2 s3 s2 s1 s2 s3",
    "s1 s2 s3 s2",
    "s3 s1 s2 s3 s2",
    "s2 s3 s1 s2 s3 s2",
    "s3 s2 s3 s1 s2 s3 s2",
    "s3 s2 s1 s2 s3 s2",
    "s2 s3 s2 s1 s2 s3 s2",
    "s3 s2 s3 s2 s1 s2 s3 s2",
    "s3 s2 s3 s1 s2",
    "s2 s3 s2 s1 s2",
    "s1 s2 s3 s2 s1",
    "s3 s1 s2 s3 s2 s1",
    "s2 s3 s1 s2 s3 s2 s1",
    "s3 s2 s3 s1 s2 s3 s2 s1",
    "s3 s2 s1 s2 s3 s2 s1",
    "s2 s3 s2 s1 s2 s3 s2 s1",
]

# The 70 elements of W(D4) that are not maximally spherical (branch node 3).
D4_NONSPHERICAL = [
    "s2 s3 s1 s4 s3 s1",
    "s1 s2 s3 s1 s4 s3 s1",
    "s3 s1 s2 s4 s3 s1",
    "s1 s2 s3 s1 s2 s4 s3 s1",
    "s1 s3 s2 s4 s3 s1",
    "s1 s2 s3 s2 s4 s3 s1",
    "s3 s1 s2 s3 s4 s3 s1",
    "s1 s3 s1 s2 s3 s4 s3 s1",
    "s2 s3 s1 s2 s3 s4 s3 s1",
    "s2 s3 s1 s4 s3 s1 s2",
    "s1 s2 s3 s1 s4 s3 s1 s2",
    "s3 s1 s2 s4 s3 s1 s2",
    "s1 s3 s1 s2 s4 s3 s1 s2",
    "s2 s3 s1 s2 s4 s3 s1 s2",
    "s1 s2 s3 s1 s2 s4 s3 s1 s2",
    "s1 s3 s2 s4 s3 s1 s2",
    "s1 s2 s3 s2 s4 s3 s1 s2",
    "s3 s1 s2 s3 s4 s3 s1 s2",
    "s1 s3 s1 s2 s3 s4 s3 s1 s2",
    "s2 s3 s1 s2 s3 s4 s3 s1 s2",
    "s2 s3 s1 s4 s3 s2",
    "s1 s2 s3 s1 s4 s3 s2",
    "s3 s1 s2 s4 s3 s2",
    "s1 s2 s3 s1 s2 s4 s3 s2",
    "s1 s3 s2 s4 s3 s2",
    "s1 s2 s3 s2 s4 s3 s2",
    "s3 s1 s2 s3 s4 s3 s2",
    "s1 s3 s1 s2 s3 s4 s3 s2",
    "s2 s3 s1 s2 s3 s4 s3 s2",
    "s4 s3 s1 s2 s3",
    "s1 s4 s3 s1 s2 s3",
    "s2 s3 s1 s4 s3 s1 s2 s3",
    "s1 s2 s3 s1 s4 s3 s1 s2 s3",
    "s2 s4 s3 s1 s2 s3",
    "s1 s2 s4 s3 s1 s2 s3",
    "s3 s1 s2 s4 s3 s1 s2 s3",
    "s1 s2 s3 s1 s2 s4 s3 s1 s2 s3",
    "s1 s3 s2 s4 s3 s1 s2 s3",
    "s1 s2 s3 s2 s4 s3 s1 s2 s3",
    "s1 s3 s4 s3 s1 s2 s3",
    "s2 s3 s4 s3 s1 s2 s3",
    "s1 s2 s3 s4 s3 s1 s2 s3",
    "s3 s1 s2 s3 s4 s3 s1 s2 s3",
    "s1 s3 s1 s2 s3 s4 s3 s1 s2 s3",
    "s2 s3 s1 s2 s3 s4 s3 s1 s2 s3",
    "s1 s2 s3 s1 s2 s3 s4 s3 s1 s2 s3",
    "s2 s3 s1 s4 s3",
    "s1 s2 s3 s1 s4 s3",
    "s1 s2 s3 s1 s2 s4 s3",
    "s1 s3 s2 s4 s3",
    "s1 s2 s3 s2 s4 s3",
    "s3 s1 s2 s3 s4 s3",
    "s4 s3 s1 s2 s3 s4",
    "s1 s4 s3 s1 s2 s3 s4",
    "s3 s1 s4 s3 s1 s2 s3 s4",
    "s2 s3 s1 s4 s3 s1 s2 s3 s4",
    "s1 s2 s3 s1 s4 s3 s1 s2 s3 s4",
    "s2 s4 s3 s1 s2 s3 s4",
    "s1 s2 s4 s3 s1 s2 s3 s4",
    "s3 s1 s2 s4 s3 s1 s2 s3 s4",
    "s1 s2 s3 s1 s2 s4 s3 s1 s2 s3 s4",
    "s3 s2 s4 s3 s1 s2 s3 s4",
    "s1 s3 s2 s4 s3 s1 s2 s3 s4",
    "s1 s2 s3 s2 s4 s3 s1 s2 s3 s4",
    "s1 s3 s4 s3 s1 s2 s3 s4",
    "s2 s3 s4 s3 s1 s2 s3 s4",
    "s1 s2 s3 s4 s3 s1 s2 s3 s4",
    "s3 s1 s2 s3 s4 s3 s1 s2 s3 s4",
    "s1 s3 s1 s2 s3 s4 s3 s1 s2 s3 s4",
    "s2 s3 s1 s2 s3 s4 s3 s1 s2 s3 s4",
]

# Block-Schur expansion of the key polynomial of (1,5,2,4,3) for D = {2,4}:
# 17 products, two of them with coefficient 2.
KEY_15243_D24_EXPANSION = {
    ((5, 4), (2, 1), (3,)): 1,
    ((5, 4), (3, 2), (1,)): 1,
    ((5, 2), (3, 2), (3,)): 1,
    ((5, 3), (3, 2), (2,)): 2,
    ((5, 3), (2, 2), (3,)): 1,
    ((5, 2), (3, 3), (2,)): 1,
    ((5, 2), (4, 2), (2,)): 2,
    ((5, 3), (3, 3), (1,)): 1,
    ((5, 3), (4, 1), (2,)): 1,
    ((5, 3), (3, 1), (3,)): 1,
    ((5, 3), (4, 2), (1,)): 1,
    ((5, 2), (4, 3), (1,)): 1,
    ((5, 2), (4, 1), (3,)): 1,
    ((5, 4), (2, 2), (2,)): 1,
    ((5, 4), (3, 1), (2,)): 1,
    ((5, 1), (4, 2), (3,)): 1,
    ((5, 1), (4, 3), (2,)): 1,
}

# Element-wise witness examples in E8.
E8_WORD_NOT_WITNESS = "s2 s3 s4 s2 s3 s4 s5 s4 s2 s3 s1 s4 s5 s6 s7 s6 s8 s7 s6"
E8_WORD_WITNESS = "s2 s3 s4 s2 s3 s4 s5 s4 s2 s3 s1 s4 s5 s7 s8 s7 s6 s7 s8"

# Expected census sizes.
NONSPHERICAL_COUNTS = {"A4": 21, "A5": 320, "A6": 3450, "B3": 18, "D4": 70}
F4_SPHERICAL = 119
F4_ORDER = 1152

# sha256 of json.dumps(run_census(t).to_json_dict() without "elapsed_seconds",
# sort_keys=True), recorded while every label was spelled with Element.word():
# pins every label, the element order, J(w), verdict and witness.
CENSUS_JSON_SHA256 = {
    "A1": "9681dccb40955f31e9fdc6f2b8ff1117bc28222e8c6b1bfeec33dd94d03040f6",
    "A2": "d8d17037fc64399a08ba80315b56b377170b2a69d1fc461aeafc9b66a9a7f9fa",
    "A3": "e72151457318fe5a878469b3216528ae45b559ee0b69085c280f02577427b861",
    "A4": "c3b5cf81a4743781dd9e4113f742847013d8898c8705e12ef26420c94c87b09d",
    "A5": "1af7c7f79282f42b8cb4dab43c11e53a8a88ccdcba34113951f7a658f5825950",
    "B3": "05119c1f509fdf08c515e48ed29ed31f8f904cabecf37721ed41a451866fa1f7",
    "B4": "7fd0192dc5d999198335f4815749674a137f6ea8bea0e2ca53dbdb27158ba153",
    "D4": "c434b36be645c84936efbb61fab492fafa017cab3e07767ec326e980623dcd96",
    "D5": "af56ba6391b21ed80a8ddd712b2f98e3e6ecb2fbf61f8e660bf1c44bf5958c09",
    "F4": "711a30b218c7a878d4bf58f090cf58e0a77e62e27ca251045ae084ba58f7ec39",
    "G2": "70fb9c3f2554f42b1f7a93cbea99964e26a004258bf72b3fd26dc6587c1b6d5a",
    "I2(4)": "ffbe3cb3b3f7a9b2cd4d612f5e234393d260ca357fc53fd881ba550016bf2435",
    "I2(5)": "13e454f20b64df5329fdf22f8031a9078b32c78c348c8059553499ba9ec50946",
    "I2(6)": "4b8adbc8041259fa8b3fd509e16fda43244efe1c599309058b9c795f05c9ed7a",
    "I2(7)": "f6a7aba09f3d0d9c09a4fbf85a33ccaae9946cd68fb2d6389f02d2025612c7e4",
    "I2(60)": "7a2f8db6bf593d8fbef7257888a829150a8c85809f21d49b03a7b8ec952ba323",
    "A6": "2200e4755bcce4983d4b98ab04b09a1859f8feeeb2bded71487f2f9aa96af74a",
    "E6": "1b38c7543eec473d66ba45825a3818d088a6b7cf74282c74ed63c523177e57ee",
}
