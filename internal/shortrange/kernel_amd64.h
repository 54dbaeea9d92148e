// Offsets into the broadcast-constant table (see kcGroups in kernel_amd64.go).
#define KC_MAGIC 0
#define KC_HALF  32
#define KC_1P5   64
#define KC_EPS   96
#define KC_RC2   128
#define KC_C0    160
#define KC_C1    192
#define KC_C2    224
#define KC_C3    256
#define KC_C4    288
#define KC_C5    320
#define KC_GM    352
