/*
 * Beam search of the toy lexical decoder, compiled and called through
 * ctypes by retransim.translator. It is plain C with no Python headers.
 *
 * The result must be bit-identical to ToyLexicalTranslator's Python beam
 * search, which stays the reference. That fixes the arithmetic:
 *   - build with -O2 -ffp-contract=off and without -ffast-math, so that
 *     (1-beta)*p + beta, (p*pen)*factor and 2*x - 1 are never fused;
 *   - pow, exp and log come from libm, as for float ** int, math.exp and
 *     math.log;
 *   - weights are summed left to right, in candidate order;
 *   - the beam keeps the first beam_size candidates of a stable sort by
 *     descending score, so ties keep pool order;
 *   - h / (2^64 - 1) is rounded as Python's int / int is (rt_unit_interval).
 *
 * Input rows, one per source position, packed without padding in native
 * byte order:
 *   int32 count, then count entries of (uint64 fnv_state, double prob,
 *   int32 token_id).
 * Token id RT_EOS is end-of-sentence.
 *
 * rt_beam_search_many, the entry that Python calls, runs rt_beam_search on
 * a batch of source prefixes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define RT_EOS 0
#define RT_MIN_PROB 1e-300
#define RT_GOLDEN UINT64_C(0x9E3779B97F4A7C15)
#define RT_ENTRY_BYTES (8 + 8 + 4)
#define RT_REQUEST_BYTES (4 + 4 + 4 + 8 + 8)

/* Returned instead of a length. */
#define RT_NO_HYPOTHESIS (-1)
#define RT_NO_MEMORY (-2)

static uint64_t avalanche(uint64_t x)
{
    x ^= x >> 30;
    x *= UINT64_C(0xBF58476D1CE4E5B9);
    x ^= x >> 27;
    x *= UINT64_C(0x94D049BB133111EB);
    x ^= x >> 31;
    return x;
}

/* FNV-1a over n bytes from state h: the prefix state of the noise hash. */
uint64_t rt_fnv1a64(const unsigned char *data, size_t n, uint64_t h)
{
    for (size_t i = 0; i < n; i++) {
        h ^= data[i];
        h *= UINT64_C(0x100000001B3);
    }
    return h;
}

/*
 * h / (2^64 - 1), correctly rounded. The quotient is h * 2^-64 + e with
 * 0 < e <= 2^-64, so it rounds as h plus a fraction in (0, 1] would: h
 * itself below 2^53, ties broken upward in [2^53, 2^54), and above that
 * h | 1, which lies strictly inside the same rounding interval as h + e.
 */
double rt_unit_interval(uint64_t h)
{
    uint64_t r = h;
    if (h >= UINT64_C(1) << 54)
        r = h | 1;
    else if (h >= UINT64_C(1) << 53)
        r = h + (h & 1);
    return (double)r * 0x1p-64;
}

typedef struct {
    double score;
    int32_t len;
    int32_t highest;
    int32_t diverged;
    int32_t done;
} hyp;

typedef struct {
    double score;
    int32_t parent;
    int32_t entry; /* lexicon entry appended; -1 when none is */
    int32_t diverged;
    int32_t done;
} cand;

/* Insert c among the best cap candidates so far, after every equal score. */
static void keep_best(cand *best, int32_t *count, int32_t cap, const cand *c)
{
    int32_t k = *count;
    if (k == cap) {
        if (!(c->score > best[cap - 1].score))
            return;
        k = cap - 1;
    }
    while (k > 0 && best[k - 1].score < c->score) {
        best[k] = best[k - 1];
        k--;
    }
    best[k] = *c;
    if (*count < cap)
        (*count)++;
}

/*
 * Decode one source prefix of n positions. On success the best complete
 * hypothesis's tokens go to out_tokens (room for n), its score to
 * out_score, and its length is returned.
 */
int32_t rt_beam_search(const unsigned char *rows, int32_t n, uint64_t prefix_state,
                       double instability, double distortion, double eos_weight,
                       double max_len_ratio, int32_t beam_size, const int32_t *prev,
                       int32_t n_prev, double beta, int32_t *out_tokens,
                       double *out_score)
{
    size_t un = (size_t)n, n_entries = 0;
    const unsigned char *at = rows;
    for (int32_t j = 0; j < n; j++) {
        int32_t count;
        memcpy(&count, at, 4);
        at += 4 + (size_t)count * RT_ENTRY_BYTES;
        n_entries += (size_t)count;
    }
    /* A hypothesis has at most n_entries + 1 children, so the beam never
     * holds more than (n_entries + 1)^(n + 1) of them: a wider beam_size
     * would allocate room that no search can fill. */
    size_t ub = 1, fan_out = n_entries + 1, widest = (size_t)beam_size;
    for (int32_t step = 0; step <= n && ub < widest; step++)
        ub = ub > widest / fan_out ? widest : ub * fan_out;
    int32_t cap = (int32_t)ub;

    size_t bytes = n_entries * (sizeof(uint64_t) + 2 * sizeof(double) + 3 * sizeof(int32_t))
                   + (n_entries + 1) * (sizeof(double) + sizeof(int32_t))
                   + (un + 1) * (sizeof(double) + sizeof(int32_t))
                   + 2 * ub * (sizeof(hyp) + un * (sizeof(int32_t) + 1))
                   + ub * sizeof(cand);
    unsigned char *block = malloc(bytes);
    if (block == NULL)
        return RT_NO_MEMORY;
    unsigned char *free_at = block;
#define TAKE(type, count) ((type *)(free_at += (count) * sizeof(type)) - (count))
    /* 8-byte members first, so that every array is aligned */
    uint64_t *state = TAKE(uint64_t, n_entries);
    double *prob = TAKE(double, n_entries);
    double *factor = TAKE(double, n_entries);
    double *weight = TAKE(double, n_entries + 1);
    double *pen = TAKE(double, un + 1);
    hyp *beam = TAKE(hyp, ub);
    hyp *next_beam = TAKE(hyp, ub);
    cand *best = TAKE(cand, ub);
    int32_t *token = TAKE(int32_t, n_entries);
    int32_t *pos = TAKE(int32_t, n_entries);
    int32_t *factor_step = TAKE(int32_t, n_entries);
    int32_t *weight_entry = TAKE(int32_t, n_entries + 1);
    int32_t *row_start = TAKE(int32_t, un + 1);
    int32_t *tokens = TAKE(int32_t, ub * un);
    int32_t *next_tokens = TAKE(int32_t, ub * un);
    unsigned char *cov = TAKE(unsigned char, ub * un);
    unsigned char *next_cov = TAKE(unsigned char, ub * un);
#undef TAKE

    at = rows;
    int32_t e = 0;
    for (int32_t j = 0; j < n; j++) {
        int32_t count;
        memcpy(&count, at, 4);
        at += 4;
        row_start[j] = e;
        for (int32_t i = 0; i < count; i++, e++, at += RT_ENTRY_BYTES) {
            memcpy(&state[e], at, 8);
            memcpy(&prob[e], at + 8, 8);
            memcpy(&token[e], at + 16, 4);
            pos[e] = j;
            factor_step[e] = -1;
        }
    }
    row_start[n] = e;
    for (int32_t d = 0; d <= n; d++)
        pen[d] = pow(distortion, (double)d);

    int biasing = beta > 0.0 && n_prev > 0;
    int noisy = instability > 0.0;
    double eos_gate = max_len_ratio * (double)n;
    int32_t n_beam = 1;
    beam[0] = (hyp){0.0, 0, -1, 0, 0};
    memset(cov, 0, un);

    for (int32_t step = 0; step <= n; step++) {
        int all_done = 1;
        for (int32_t b = 0; b < n_beam; b++)
            all_done &= beam[b].done;
        if (all_done)
            break;

        int32_t n_best = 0;
        for (int32_t b = 0; b < n_beam; b++) {
            const hyp *h = &beam[b];
            if (h->done) {
                cand c = {h->score, b, -1, h->diverged, 1};
                keep_best(best, &n_best, cap, &c);
                continue;
            }
            /* every open hypothesis of this step holds step tokens */
            int32_t m = h->len, expected = h->highest + 1, n_weights = 0;
            const unsigned char *covered = cov + (size_t)b * un;
            for (int32_t j = 0; j < n; j++) {
                if (covered[j])
                    continue;
                double p_pen = pen[j > expected ? j - expected : expected - j];
                for (int32_t i = row_start[j]; i < row_start[j + 1]; i++) {
                    double w = prob[i] * p_pen;
                    if (noisy) {
                        if (factor_step[i] != step) {
                            uint64_t x = avalanche(
                                prefix_state ^ avalanche(state[i] + (uint64_t)m * RT_GOLDEN));
                            double u = 2.0 * rt_unit_interval(x) - 1.0;
                            factor[i] = exp(instability * u);
                            factor_step[i] = step;
                        }
                        w *= factor[i];
                    }
                    weight[n_weights] = w;
                    weight_entry[n_weights++] = i;
                }
            }
            if (m == n || (double)m >= eos_gate) {
                weight[n_weights] = eos_weight;
                weight_entry[n_weights++] = -1;
            }
            double total = 0.0;
            for (int32_t i = 0; i < n_weights; i++)
                total += weight[i];
            for (int32_t i = 0; i < n_weights; i++) {
                int32_t entry = weight_entry[i];
                int32_t tok = entry < 0 ? RT_EOS : token[entry];
                double p = weight[i] / total;
                int32_t diverged = h->diverged;
                if (biasing && !h->diverged && m < n_prev) {
                    if (tok == prev[m]) {
                        p = (1.0 - beta) * p + beta;
                    } else {
                        p = (1.0 - beta) * p;
                        diverged = 1;
                    }
                }
                if (p < RT_MIN_PROB)
                    p = RT_MIN_PROB;
                cand c = {h->score + log(p), b, entry, diverged, 0};
                if (tok == RT_EOS) {
                    c.entry = -1;
                    c.diverged = h->diverged;
                    c.done = 1;
                }
                keep_best(best, &n_best, cap, &c);
            }
        }

        for (int32_t k = 0; k < n_best; k++) {
            const cand *c = &best[k];
            const hyp *parent = &beam[c->parent];
            hyp *child = &next_beam[k];
            int32_t *child_tokens = next_tokens + (size_t)k * un;
            unsigned char *child_cov = next_cov + (size_t)k * un;
            *child = *parent;
            memcpy(child_tokens, tokens + (size_t)c->parent * un, parent->len * sizeof(int32_t));
            memcpy(child_cov, cov + (size_t)c->parent * un, un);
            child->score = c->score;
            child->diverged = c->diverged;
            child->done = c->done;
            if (c->entry >= 0) {
                int32_t j = pos[c->entry];
                child_tokens[child->len++] = token[c->entry];
                child_cov[j] = 1;
                if (j > child->highest)
                    child->highest = j;
            }
        }
        hyp *swap_beam = beam;
        beam = next_beam;
        next_beam = swap_beam;
        int32_t *swap_tokens = tokens;
        tokens = next_tokens;
        next_tokens = swap_tokens;
        unsigned char *swap_cov = cov;
        cov = next_cov;
        next_cov = swap_cov;
        n_beam = n_best;
    }

    int32_t result = RT_NO_HYPOTHESIS;
    for (int32_t b = 0; b < n_beam; b++) {
        if (beam[b].done) {
            result = beam[b].len;
            memcpy(out_tokens, tokens + (size_t)b * un, (size_t)result * sizeof(int32_t));
            *out_score = beam[b].score;
            break;
        }
    }
    free(block);
    return result;
}

/* The first byte after n rows. */
static const unsigned char *skip_rows(const unsigned char *rows, int32_t n)
{
    for (int32_t j = 0; j < n; j++) {
        int32_t count;
        memcpy(&count, rows, 4);
        rows += 4 + (size_t)count * RT_ENTRY_BYTES;
    }
    return rows;
}

/*
 * Decode n_requests source prefixes with one decoder configuration.
 * requests holds one record per request, packed like the rows:
 *   int32 n (source length), int32 n_prev (bias: previous output length),
 *   int32 text_bytes, double eos_weight, double beta (bias weight).
 * rows, texts and prev hold the requests' n rows, their sources' UTF-8
 * bytes joined by 0x1F (the noise hash's blob; empty without noise) and
 * their previous outputs' token ids, each request's right after the
 * last one's. The prefix state is the FNV-1a of the text from seed_state.
 * Request r's tokens go to out_tokens after the earlier requests' n
 * slots, its length (or RT_NO_HYPOTHESIS, RT_NO_MEMORY) to
 * out_lengths[r] and its score to out_scores[r].
 */
void rt_beam_search_many(int32_t n_requests, const unsigned char *requests,
                         const unsigned char *rows, const unsigned char *texts,
                         const int32_t *prev, uint64_t seed_state, double instability,
                         double distortion, double max_len_ratio, int32_t beam_size,
                         int32_t *out_tokens, int32_t *out_lengths, double *out_scores)
{
    for (int32_t r = 0; r < n_requests; r++, requests += RT_REQUEST_BYTES) {
        int32_t n, n_prev, text_bytes;
        double eos_weight, beta;
        memcpy(&n, requests, 4);
        memcpy(&n_prev, requests + 4, 4);
        memcpy(&text_bytes, requests + 8, 4);
        memcpy(&eos_weight, requests + 12, 8);
        memcpy(&beta, requests + 20, 8);
        uint64_t prefix_state = 0;
        if (instability > 0.0)
            prefix_state = rt_fnv1a64(texts, (size_t)text_bytes, seed_state);
        out_lengths[r] = rt_beam_search(rows, n, prefix_state, instability, distortion,
                                        eos_weight, max_len_ratio, beam_size, prev, n_prev,
                                        beta, out_tokens, &out_scores[r]);
        rows = skip_rows(rows, n);
        texts += text_bytes;
        prev += n_prev;
        out_tokens += n;
    }
}
