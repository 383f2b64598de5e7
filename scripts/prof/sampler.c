/* A SIGPROF sampling profiler to LD_PRELOAD (see scripts/prof.sh): every
 * millisecond of CPU time (or every kernel tick, if that is longer) it
 * records the interrupted instruction's address minus the executable's
 * load base, and at exit writes the samples, one 16-digit hex address a
 * line, to the file named by PROF_OUT. Samples outside the executable
 * (libc, the vdso) are written as 0. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1ul << 22)
static unsigned long samples[CAP], count, base, end;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    unsigned long i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < CAP) samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
    (void)sig, (void)info;
}

/* The first object dl_iterate_phdr reports is the executable itself. */
static int executable(struct dl_phdr_info *o, size_t size, void *data) {
    base = o->dlpi_addr;
    for (int i = 0; i < o->dlpi_phnum; i++)
        if (o->dlpi_phdr[i].p_type == PT_LOAD && base + o->dlpi_phdr[i].p_vaddr + o->dlpi_phdr[i].p_memsz > end)
            end = base + o->dlpi_phdr[i].p_vaddr + o->dlpi_phdr[i].p_memsz;
    (void)size, (void)data;
    return 1;
}

static void set_timer(long usec) {
    struct itimerval t = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &t, NULL);
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* children are not sampled */
    dl_iterate_phdr(executable, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    set_timer(1000);
}

__attribute__((destructor)) static void stop(void) {
    set_timer(0);
    FILE *out = fopen(getenv("PROF_OUT") ? getenv("PROF_OUT") : "prof.out", "w");
    if (!out) return;
    for (unsigned long i = 0; i < count && i < CAP; i++)
        fprintf(out, "%016lx\n", samples[i] >= base && samples[i] < end ? samples[i] - base : 0ul);
    fclose(out);
}
